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
	// of the structure, not of any particular run.
	w.String(p.meta.Name)
	w.Int(p.meta.Batches)
	w.Int(p.meta.Cluster.CubeClusters)
	w.Int(p.meta.Cluster.StrassenClusters)
	w.Int(p.meta.Kappa)
	w.Int(p.meta.Triangles)
	w.Int(p.meta.Residual)
	w.Int32s(cp.sizes)
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
// touch it: supports are rebuilt with range and sortedness checks, load
// refs are matched one-to-one against the support entries, and every slot
// reference in every embedded program is bounds-checked against the arena
// geometry.
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
	meta := Result{Name: r.String(), Batches: r.Int()}
	meta.Cluster.CubeClusters, meta.Cluster.StrassenClusters = r.Int(), r.Int()
	meta.Kappa, meta.Triangles, meta.Residual = r.Int(), r.Int(), r.Int()
	cp := &compiledPrepared{sizes: r.Int32s()}
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
	// The supports, and the load refs matched one-to-one against them.
	var sups [3]*matrix.Support
	loads := [3]*[]loadRef{&cp.loadA, &cp.loadB, &cp.x}
	for i, m := range [3]string{"A", "B", "X"} {
		if sups[i], err = matrix.SupportFromRows(n, rows[i]); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: %shat: %w", m, err)
		}
		if *loads[i], err = importRefs(refs[i], sups[i], cp.sizes); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: %s slots: %w", m, err)
		}
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
	cp.finish(rg)
	return &Prepared{
		Inst:     graph.NewInstance(d, sups[0], sups[1], sups[2]),
		R:        rg,
		Name:     name,
		compiled: cp,
		meta:     meta,
	}, nil
}

// importRefs pairs decoded slot refs with sup's entries in row-major order
// — the order compilePrepared emits, EncodeCompiled writes and the batched
// loader's merge-walk depends on — insisting on one ref per entry with
// every slot in range.
func importRefs(refs []lbm.SlotRef, sup *matrix.Support, sizes []int32) ([]loadRef, error) {
	if len(refs) != sup.NNZ {
		return nil, fmt.Errorf("%d refs for %d support entries", len(refs), sup.NNZ)
	}
	if err := lbm.CheckRefs(sizes, refs...); err != nil {
		return nil, err
	}
	out := make([]loadRef, 0, len(refs))
	for i, row := range sup.Rows {
		for _, j := range row {
			out = append(out, loadRef{i: int32(i), j: j, ref: refs[len(out)]})
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
