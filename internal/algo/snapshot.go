package algo

import (
	"fmt"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

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
	// The load slots are not written: the decoder derives them from the
	// supports and d (numberLoads).
	w.Program(cp.prog)
	return nil
}

// DecodeCompiledPrepared reads what EncodeCompiled wrote. The result is
// compiled-only: MultiplyBatch runs exactly as on a freshly prepared form,
// and there is no plan for the map engine to run.
//
// Decoded state crosses a trust boundary (the plan store's files are
// outside the process), so it is checked before an executor can touch it,
// for bounds, for the counts it implies and for definition before use. The
// three supports are read into one row-offsets slab and one column slab
// (lbm.WireReader.RowLists), each support a view of its part held to
// matrix.SupportFromCSR's offset, range and sortedness checks, and no
// column index is built. Every plan is read for the machine size they pin
// and held to the model rules, with its per-round counts derived from its
// instructions. The load slots and the per-node dead counts are not read
// but derived, as compilation derived them (numberLoads): from the
// supports' live cells (graph.Instance.Live) and the layout d implies
// (choosePlacement), with no lbm.Layout built. The arena sizes are derived
// from every ref the form holds and must be gap-free, so the arenas are
// never larger than the refs that use them. A program that subtracts or
// multiplies leaf blocks needs a ring with subtraction. Walked once in
// execution order — the loads, then every step — no step may read a slot
// before a load, a route delivery, a product or a leaf defines it, nor
// after a clear undefines it (lbm.ErrUseBeforeDef): a decoded form never
// panics on a missing slot.
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
	cp := &compiledPrepared{prog: r.Program(n)}
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
	inst := graph.NewInstance(d, sups[0], sups[1], sups[2])
	cp.numberLoads(inst, choosePlacement(inst), [3][]bool{}, [3][]int32{})
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
