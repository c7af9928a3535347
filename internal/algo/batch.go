package algo

import (
	"fmt"

	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// MultiplyBatch runs the prepared plans on k value sets at once: the one
// production walk, a scalar multiply being the batch with k = 1. Every lane
// must realize (a subset of) the prepared supports: positions outside the
// known structure are rejected, positions inside it but absent load as the
// ring Zero (the supported model's "indicator" semantics, §2.1). The lanes
// share one instruction-stream walk: the batch pays one presence check, one
// decode and one stats update per instruction regardless of k, which is
// where the batching throughput win lives. Outputs come back lane for lane:
// outs[l] is as[l]·bs[l], each lane's cells carved from one slab.
//
// Only values move in: which slots hold a value after loading is fixed by
// the structure, so the load marks them present in one call and copies the
// values into the arenas. The support check rides the same walk, which
// counts the cells it matched per lane; a lane whose count falls short of
// its stored entries is rejected with the error a separate check would give.
//
// The returned Result describes the whole batch (Lanes = k); Stats and
// Rounds are per-batch, not per-lane, because the batch really did execute
// one round sequence. The machine options are per call — tracing
// (lbm.WithTrace), fault injection (lbm.WithInjector), a transport — and a
// fault fails the whole batch: lanes share every round, so there is no
// per-lane partial success.
//
// MultiplyBatch is safe for concurrent use from multiple goroutines: every
// call executes on its own pooled executor, and all prepared state is
// read-only after Prepare.
func (p *Prepared) MultiplyBatch(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	if len(as) == 0 {
		return nil, nil, fmt.Errorf("algo: empty batch")
	}
	if len(as) != len(bs) {
		return nil, nil, fmt.Errorf("algo: batch lanes mismatched: %d A values vs %d B values", len(as), len(bs))
	}
	for l := range as {
		if as[l].N != p.Inst.N || bs[l].N != p.Inst.N {
			return nil, nil, p.outsideErr(as, bs)
		}
	}
	return p.multiplyCompiledBatch(as, bs, mopts...)
}

// outsideErr is the error of the first lane, in lane order and A before B,
// whose values do not fit the prepared structure.
func (p *Prepared) outsideErr(as, bs []*matrix.Sparse) error {
	for l := range as {
		if err := within(as[l], p.Inst.Ahat); err != nil {
			return fmt.Errorf("algo: lane %d: A %w", l, err)
		}
		if err := within(bs[l], p.Inst.Bhat); err != nil {
			return fmt.Errorf("algo: lane %d: B %w", l, err)
		}
	}
	return fmt.Errorf("algo: batch values outside the prepared structure")
}

// multiplyCompiledBatch is the compiled value walk: one pooled executor
// whose arenas carry k lanes per slot, loaded from the value sets and walked
// once.
func (p *Prepared) multiplyCompiledBatch(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	cp := p.compiled
	K := len(as)
	x, pool := cp.execFor(K)
	x.Configure(mopts...)
	defer func() {
		x.Reset()
		pool.Put(x)
	}()
	// Load refs are in row-major sorted order (compilePrepared walks the
	// support rows), so one cursor per lane merge-walks the sorted rows
	// instead of binary-searching every position, and counts the cells it
	// matched. The loader has two regimes, chosen by the lane count like
	// lbm.Exec's gather: k > 1 walks slot-major with per-lane cursor arrays;
	// k = 1 keeps its one cursor in registers, because the per-lane arrays
	// cost a lone lane more than they save.
	zero := p.R.Zero()
	arena := x.BeginLoad(cp.loaded)
	hits := make([]int, 2*K)
	var rows [][]matrix.Cell
	var pos []int
	if K > 1 {
		rows, pos = make([][]matrix.Cell, K), make([]int, K)
	}
	load := func(refs []loadRef, ms []*matrix.Sparse, hits []int) {
		row := int32(-1)
		if K == 1 {
			var cells []matrix.Cell
			k, hit := 0, 0
			for _, lr := range refs {
				if lr.i != row {
					row, cells, k = lr.i, ms[0].Rows[lr.i], 0
				}
				var v ring.Value
				var ok bool
				v, k, ok = valueAt(cells, k, lr.j, zero)
				if ok {
					hit++
				}
				arena[lr.ref.Node][lr.ref.Slot] = v
			}
			hits[0] = hit
			return
		}
		for _, lr := range refs {
			if lr.i != row {
				row = lr.i
				for l, m := range ms {
					rows[l], pos[l] = m.Rows[row], 0
				}
			}
			dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
			for l := range dst {
				var ok bool
				dst[l], pos[l], ok = valueAt(rows[l], pos[l], lr.j, zero)
				if ok {
					hits[l]++
				}
			}
		}
	}
	load(cp.loadA, as, hits[:K])
	load(cp.loadB, bs, hits[K:])
	// A cursor consumes each stored cell at most once and counts it only on
	// a support position, so a lane matches all its cells exactly when
	// every one lies inside the support.
	for l := range as {
		if hits[l] != as[l].NNZ() || hits[K+l] != bs[l].NNZ() {
			return nil, nil, p.outsideErr(as, bs)
		}
	}
	for _, lr := range cp.x {
		dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
		for l := range dst {
			dst[l] = zero
		}
	}
	for _, cb := range cp.phase1 {
		if err := cb.Run(x); err != nil {
			return nil, nil, err
		}
	}
	for _, ref := range cp.stagingClear {
		x.ClearSlot(ref)
	}
	phase1 := x.Rounds()
	if err := fewtri.RunCompiled(x, cp.few); err != nil {
		return nil, nil, err
	}
	outs, err := p.collect(x, arena, K)
	if err != nil {
		return nil, nil, err
	}
	res := p.meta
	res.Engine = "compiled"
	res.Lanes = K
	res.Stats = x.Stats()
	res.Rounds = res.Stats.Rounds
	res.Phase1Rounds = phase1
	res.Phase2Rounds = res.Rounds - phase1
	if res.Profile = x.Profile(); res.Profile != nil {
		res.Timeline = res.Profile.Timeline()
	}
	return outs, &res, nil
}

// collect reads the product out of the owned X slots of the executor whose
// arenas are arena: one pass over cp.x checks that every owned slot holds a
// value and counts each lane's nonzeros, then each lane's rows are carved
// from one slab of exactly that many cells. cp.x is row-major sorted, so a
// row is a contiguous run of its lane's slab; ring zeros are skipped exactly
// as Sparse.Set drops them. A partitioned run collects each output at the
// participant that owns it; the coordinator merges the disjoint partials.
func (p *Prepared) collect(x *lbm.Exec, arena [][]ring.Value, K int) ([]*matrix.Sparse, error) {
	cp, r, zero := p.compiled, p.R, p.R.Zero()
	nnz := make([]int, 2*K)
	for _, lr := range cp.x {
		if !x.Owns(lr.ref.Node) {
			continue
		}
		if !x.Present(lr.ref) {
			return nil, fmt.Errorf("lbm: owner of X(%d,%d) never received it", lr.i, lr.j)
		}
		for l, v := range arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K] {
			if !r.Eq(v, zero) {
				nnz[l]++
			}
		}
	}
	outs := make([]*matrix.Sparse, K)
	slabs := make([][]matrix.Cell, K)
	for l := range outs {
		outs[l] = matrix.NewSparse(p.Inst.Xhat.N, r)
		slabs[l] = make([]matrix.Cell, 0, nnz[l])
	}
	// start[l] is where the open row begins in lane l's slab.
	start := nnz[K:]
	row := int32(-1)
	closeRow := func() {
		for l, s := range slabs {
			if n := len(s); n > start[l] {
				outs[l].Rows[row] = s[start[l]:n:n]
				start[l] = n
			}
		}
	}
	for _, lr := range cp.x {
		if !x.Owns(lr.ref.Node) {
			continue
		}
		if lr.i != row {
			if row >= 0 {
				closeRow()
			}
			row = lr.i
		}
		for l, v := range arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K] {
			if !r.Eq(v, zero) {
				slabs[l] = append(slabs[l], matrix.Cell{Col: lr.j, Val: v})
			}
		}
	}
	if row >= 0 {
		closeRow()
	}
	return outs, nil
}

// valueAt advances the cursor k over one sorted row to column col and
// returns the value stored there (zero when the row has none), the cursor
// for the next, larger column, and whether the row had a cell at col.
func valueAt(cells []matrix.Cell, k int, col int32, zero ring.Value) (ring.Value, int, bool) {
	for k < len(cells) && cells[k].Col < col {
		k++
	}
	if k < len(cells) && cells[k].Col == col {
		return cells[k].Val, k + 1, true
	}
	return zero, k, false
}
