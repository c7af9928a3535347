package algo

import (
	"errors"
	"fmt"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// ErrNoMapForm reports that a Prepared holds only its compiled form: it was
// restored from a serialized snapshot, which carries the lowered instruction
// streams but not the map-engine planning state (planned batches, the
// Lemma 3.1 job). MultiplyMap on such a preparation fails with this error.
var ErrNoMapForm = errors.New("algo: prepared form restored from snapshot has no map engine")

// EncodeCompiled appends the prepared form's compiled state to an envelope
// body: the supports (so the decoded form can validate inputs and rebuild
// its instance), the ring identity, the structural metadata of the
// preparation and the lowered instruction state — everything MultiplyBatch
// needs, and nothing the map engine would need. It fails if the preparation
// has no compiled form (nothing worth persisting: re-planning is exactly as
// expensive as decoding would be).
func (p *Prepared) EncodeCompiled(w *lbm.WireWriter) error {
	cp := p.compiled
	if cp == nil {
		return fmt.Errorf("algo: %q has no compiled form to encode", p.Name)
	}
	w.String(p.Name)
	// The ring's Name() alone does not pin GF(p)'s modulus.
	w.String(p.R.Name())
	var ringP int64
	if f, ok := p.R.(ring.GFp); ok {
		ringP = f.P
	}
	w.Int(int(ringP))
	w.Int(p.Inst.N)
	w.Int(p.Inst.D)
	// Supports go out as a row count and then one slab of column indices
	// per row; columns are derivable and not stored.
	for _, sup := range []*matrix.Support{p.Inst.Ahat, p.Inst.Bhat, p.Inst.Xhat} {
		w.Count(sup.N)
		for i := range sup.N {
			w.Int32s(sup.Row(i))
		}
	}
	// The preparation-time Result skeleton: the fields that are functions
	// of the structure, not of any particular run. Its Name is p.Name.
	w.Int(p.meta.Batches)
	w.Int(p.meta.Cluster.CubeClusters)
	w.Int(p.meta.Cluster.StrassenClusters)
	w.Int(p.meta.Kappa)
	w.Int(p.meta.Triangles)
	w.Int(p.meta.Residual)
	w.Int32s(cp.dead)
	for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
		w.Count(len(refs))
		for _, lr := range refs {
			w.Ref(lr.ref)
		}
	}
	w.Program(cp.prog)
	return nil
}

// DecodeCompiledPrepared reads what EncodeCompiled wrote. The result is
// compiled-only: MultiplyBatch runs exactly as on a freshly prepared form,
// while MultiplyMap fails with ErrNoMapForm.
//
// Decoded state crosses a trust boundary (the plan store's files are
// outside the process), so it is checked before an executor can touch it,
// for bounds, for the counts it implies and for definition before use. The three supports are read
// into one row-offsets slab and one column slab (lbm.WireReader.RowLists),
// each support a view of its part held to matrix.SupportFromCSR's offset,
// range and sortedness checks, and no column index is built. Every plan is
// read for the machine size they pin and held to the model rules, with its
// per-round counts derived from its instructions. The live cells are
// derived from the supports
// (graph.Instance.Live), and the load refs are matched one-to-one against
// them. The per-node dead counts must be non-negative and sum to the dead
// cells. The load refs must number each node's slots from 0 without a gap
// (ErrLoadSlots). The arena sizes are derived from every ref the form holds
// and must be gap-free, so the arenas are never larger than the refs that
// use them. A program that subtracts or multiplies leaf blocks needs a ring
// with subtraction. Walked once in execution order — the loads, then every
// step — no step may read a slot before a load, a route delivery, a product
// or a leaf defines it, nor after a clear undefines it
// (lbm.ErrUseBeforeDef): a decoded form never panics on a missing slot.
//
// The product is not checked: a form that passes all of this can still
// compute a wrong one. Catching that needs a certificate multiply, which is
// not done here.
//
// Everything decoded is copied out of r, so the result holds nothing of the
// body buffer; the caller closes r, which hands that buffer back.
func DecodeCompiledPrepared(r *lbm.WireReader) (*Prepared, error) {
	name, ringName, ringP := r.String(), r.String(), int64(r.Int())
	n, d := r.Int(), r.Int()
	off, col := r.RowLists(3, n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}
	// The supports pin the machine size every plan below is read for.
	var sups [3]*matrix.Support
	var err error
	for i, m := range [3]string{"A", "B", "X"} {
		o := off[i*(n+1) : (i+1)*(n+1) : (i+1)*(n+1)]
		nnz := int(o[n])
		if sups[i], err = matrix.SupportFromCSR(n, o, col[:nnz:nnz]); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: %shat: %w", m, err)
		}
		col = col[nnz:]
	}
	meta := Result{Name: name, Batches: r.Int()}
	meta.Cluster.CubeClusters, meta.Cluster.StrassenClusters = r.Int(), r.Int()
	meta.Kappa, meta.Triangles, meta.Residual = r.Int(), r.Int(), r.Int()
	cp := &compiledPrepared{dead: r.Int32s()}
	refs := [3][]lbm.SlotRef{r.Refs(), r.Refs(), r.Refs()}
	cp.prog = r.Program(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}

	rg, err := ringFromWire(ringName, ringP)
	if err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}
	switch name {
	case "trivial", "lemma31", "theorem42":
	default:
		return nil, fmt.Errorf("algo: decode prepared: algorithm %q has no compiled form", name)
	}
	// The name says which plan the form runs: a trivial job, or a Lemma 3.1
	// job that only theorem42 may precede with phase-1 routes. The job
	// starts at the program's split with its span, labelled by its shape
	// ("lemma31", "trivial" or "naive"); a job with no triangles has no span
	// and no routes, and fits every name.
	want := "lemma31"
	if name == "trivial" {
		want = "trivial"
	}
	prog := cp.prog
	job, phase1 := prog.SpanAt(prog.Split), prog.Runs(0, prog.Split)
	if job != "" && job != want || job == "" && prog.Runs(prog.Split, len(prog.Steps)) || phase1 && name != "theorem42" {
		return nil, fmt.Errorf("algo: decode prepared: %s with phase-1 routes %v and a %q job", name, phase1, job)
	}
	if d < 1 {
		return nil, fmt.Errorf("algo: decode prepared: sparsity parameter d=%d", d)
	}
	// The load refs, matched one-to-one against the supports' live cells:
	// liveness is derived from the supports, never carried.
	inst := graph.NewInstance(d, sups[0], sups[1], sups[2])
	var live [3][]bool
	live[0], live[1], live[2] = inst.Live()
	loads := [3]*[]loadRef{&cp.loadA, &cp.loadB, &cp.x}
	dead := 0
	for i, m := range [3]string{"A", "B", "X"} {
		if *loads[i], err = importRefs(refs[i], sups[i], live[i]); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: %s slots: %w", m, err)
		}
		dead += sups[i].NNZ - len(*loads[i])
	}
	if len(cp.dead) != n {
		return nil, fmt.Errorf("algo: decode prepared: %d dead counts for %d nodes", len(cp.dead), n)
	}
	sum := 0
	for v, c := range cp.dead {
		if c < 0 {
			return nil, fmt.Errorf("algo: decode prepared: negative dead count at node %d", v)
		}
		sum += int(c)
	}
	if sum != dead {
		return nil, fmt.Errorf("algo: decode prepared: dead counts sum to %d, the supports have %d dead cells", sum, dead)
	}
	if err := cp.finish(n, rg); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}
	return &Prepared{
		Inst:     inst,
		R:        rg,
		Name:     name,
		compiled: cp,
		meta:     meta,
	}, nil
}

// importRefs pairs decoded slot refs with sup's live entries in row-major
// order — the order compilePrepared emits, EncodeCompiled writes and the
// loader depends on — insisting on one ref per live entry.
func importRefs(refs []lbm.SlotRef, sup *matrix.Support, live []bool) ([]loadRef, error) {
	nLive := 0
	for _, ok := range live {
		if ok {
			nLive++
		}
	}
	if len(refs) != nLive {
		return nil, fmt.Errorf("%d refs for %d live support entries", len(refs), nLive)
	}
	out := make([]loadRef, 0, len(refs))
	for k, ok := range live {
		if ok {
			out = append(out, loadRef{k: int32(k), ref: refs[len(out)]})
		}
	}
	return out, nil
}

// ringFromWire reconstructs the ring a snapshot was prepared over. GF(p)
// carries its modulus explicitly — the name alone maps to the default
// modulus, which would silently change the arithmetic.
func ringFromWire(name string, p int64) (ring.Semiring, error) {
	if name == "gfp" {
		return ring.ParseGFp(p)
	}
	rg, err := matrix.RingByName(name)
	if err != nil {
		return nil, err
	}
	return rg, nil
}
