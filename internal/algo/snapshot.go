package algo

import (
	"errors"
	"fmt"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
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
	// Supports go out as one slab of column indices per row; Cols is
	// derivable and not stored.
	for _, sup := range []*matrix.Support{p.Inst.Ahat, p.Inst.Bhat, p.Inst.Xhat} {
		w.Count(len(sup.Rows))
		for _, row := range sup.Rows {
			w.Int32s(row)
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
	w.Int32s(cp.sizes)
	w.Int32s(cp.dead)
	for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
		w.Count(len(refs))
		for _, lr := range refs {
			w.Ref(lr.ref)
		}
	}
	w.Count(len(cp.phase1))
	for _, cb := range cp.phase1 {
		cb.PutWire(w)
	}
	w.Refs(cp.stagingClear)
	cp.few.PutWire(w)
	return nil
}

// DecodeCompiledPrepared reads what EncodeCompiled wrote. The result is
// compiled-only: MultiplyBatch runs exactly as on a freshly prepared form,
// while MultiplyMap fails with ErrNoMapForm.
//
// Decoded state crosses a trust boundary (the plan store's files are
// outside the process), so everything is validated before an executor can
// touch it: supports are rebuilt with range and sortedness checks, the
// live cells are derived from them (graph.Instance.Live), load refs are
// matched one-to-one against the live cells and must number each node's
// slots from 0 without a gap (ErrLoadSlots), the per-node dead counts must
// be non-negative and sum to the dead cells, and every slot reference in
// every embedded program is bounds-checked against the arena geometry.
func DecodeCompiledPrepared(r *lbm.WireReader) (*Prepared, error) {
	name, ringName, ringP := r.String(), r.String(), int64(r.Int())
	n, d := r.Int(), r.Int()
	var rows [3][][]int32
	for i := range rows {
		if k := r.Count(4); k > 0 {
			rows[i] = make([][]int32, k)
		}
		for j := range rows[i] {
			rows[i][j] = r.Int32s()
		}
	}
	meta := Result{Name: name, Batches: r.Int()}
	meta.Cluster.CubeClusters, meta.Cluster.StrassenClusters = r.Int(), r.Int()
	meta.Kappa, meta.Triangles, meta.Residual = r.Int(), r.Int(), r.Int()
	cp := &compiledPrepared{sizes: r.Int32s(), dead: r.Int32s()}
	refs := [3][]lbm.SlotRef{r.Refs(), r.Refs(), r.Refs()}
	if k := r.Count(2); k > 0 {
		cp.phase1 = make([]*cluster.CompiledBatch, k)
	}
	for i := range cp.phase1 {
		cp.phase1[i] = cluster.GetBatch(r)
	}
	cp.stagingClear = r.Refs()
	cp.few = fewtri.GetJob(r)
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
	// job that only theorem42 may precede with phase-1 batches.
	if job := cp.few.Shape(); job != "" && (job == "trivial") != (name == "trivial") || len(cp.phase1) > 0 && name != "theorem42" {
		return nil, fmt.Errorf("algo: decode prepared: %s with %d phase-1 batches and a %q job", name, len(cp.phase1), job)
	}
	if d < 1 {
		return nil, fmt.Errorf("algo: decode prepared: sparsity parameter d=%d", d)
	}
	if len(cp.sizes) != n {
		return nil, fmt.Errorf("algo: decode prepared: %d arenas for %d nodes", len(cp.sizes), n)
	}
	for v, sz := range cp.sizes {
		if sz < 0 {
			return nil, fmt.Errorf("algo: decode prepared: negative arena size at node %d", v)
		}
	}
	// The supports, and the load refs matched one-to-one against their live
	// cells: liveness is derived from the supports, never carried.
	var sups [3]*matrix.Support
	for i, m := range [3]string{"A", "B", "X"} {
		if sups[i], err = matrix.SupportFromRows(n, rows[i]); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: %shat: %w", m, err)
		}
	}
	inst := graph.NewInstance(d, sups[0], sups[1], sups[2])
	var live [3][]bool
	live[0], live[1], live[2] = inst.Live()
	loads := [3]*[]loadRef{&cp.loadA, &cp.loadB, &cp.x}
	dead := 0
	for i, m := range [3]string{"A", "B", "X"} {
		if *loads[i], err = importRefs(refs[i], sups[i], live[i], cp.sizes); err != nil {
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
	for i, cb := range cp.phase1 {
		if err := cb.ValidateRefs(cp.sizes); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: phase-1 batch %d: %w", i, err)
		}
	}
	if err := lbm.CheckRefs(cp.sizes, cp.stagingClear...); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: staging sweep: %w", err)
	}
	if err := cp.few.ValidateRefs(cp.sizes); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: phase-2 job: %w", err)
	}
	if err := cp.finish(rg); err != nil {
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
// loader depends on — insisting on one ref per live entry with every slot
// in range.
func importRefs(refs []lbm.SlotRef, sup *matrix.Support, live []bool, sizes []int32) ([]loadRef, error) {
	nLive := 0
	for _, ok := range live {
		if ok {
			nLive++
		}
	}
	if len(refs) != nLive {
		return nil, fmt.Errorf("%d refs for %d live support entries", len(refs), nLive)
	}
	if err := lbm.CheckRefs(sizes, refs...); err != nil {
		return nil, err
	}
	out := make([]loadRef, 0, len(refs))
	pos := 0
	for i, row := range sup.Rows {
		for at, j := range row {
			if live[pos] {
				out = append(out, loadRef{i: int32(i), j: j, at: int32(at), ref: refs[len(out)]})
			}
			pos++
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
