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
// Only live values move in (compiledPrepared): which slots hold a value
// after loading is fixed by the structure, so the load marks them present in
// one call and copies the live cells' values into the arenas. Before that,
// one containment pass per lane compares each row's columns against the
// support row; it rejects every value outside the structure, dead cells
// included, though no dead value is ever read.
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
		if err := within(as[l], p.Inst.Ahat); err != nil {
			return nil, nil, fmt.Errorf("algo: lane %d: A %w", l, err)
		}
		if err := within(bs[l], p.Inst.Bhat); err != nil {
			return nil, nil, fmt.Errorf("algo: lane %d: B %w", l, err)
		}
	}
	return p.multiplyCompiledBatch(as, bs, mopts...)
}

// multiplyCompiledBatch is the compiled value walk: one pooled executor
// whose arenas carry k lanes per slot, loaded from the value sets and walked
// once. The lanes have passed the containment pass.
func (p *Prepared) multiplyCompiledBatch(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	cp := p.compiled
	K := len(as)
	x, pool := cp.execFor(K)
	x.Configure(mopts...)
	defer func() {
		x.Reset()
		pool.Put(x)
	}()
	zero := p.R.Zero()
	arena := x.BeginLoad(cp.loaded, cp.dead)
	var lanes []laneRow
	if K > 1 {
		lanes = make([]laneRow, K)
	}
	loadLive(arena, cp.loadA, p.Inst.Ahat, as, lanes, zero)
	loadLive(arena, cp.loadB, p.Inst.Bhat, bs, lanes, zero)
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

// laneRow is one lane's view of the support row the loader is in: the
// lane's cells of that row, a cursor into them, and whether the lane holds
// every cell of the row.
type laneRow struct {
	cells []matrix.Cell
	k     int
	full  bool
}

// loadLive copies the values of the live cells refs into the arenas, lane
// l of each slot from ms[l]. refs are in row-major order and every lane's
// rows lie inside sup, so a lane that holds a whole row finds a cell at its
// support position; a partial row is merge-walked with one cursor, and a
// cell it lacks loads as zero. Like lbm.Exec's gather, the copy has two
// regimes chosen by the lane count: k > 1 walks slot-major with one
// laneRow per lane, k = 1 keeps its one row in registers, which measured
// ~5% faster on BenchmarkMultiplyUS256.
func loadLive(arena [][]ring.Value, refs []loadRef, sup *matrix.Support, ms []*matrix.Sparse, lanes []laneRow, zero ring.Value) {
	K := len(ms)
	row := int32(-1)
	if K == 1 {
		var ln laneRow
		for _, lr := range refs {
			if lr.i != row {
				row = lr.i
				cells := ms[0].Rows[row]
				ln = laneRow{cells: cells, full: len(cells) == len(sup.Rows[row])}
			}
			dst := &arena[lr.ref.Node][lr.ref.Slot]
			if ln.full {
				*dst = ln.cells[lr.at].Val
				continue
			}
			*dst, ln.k = valueAt(ln.cells, ln.k, lr.j, zero)
		}
		return
	}
	lanes = lanes[:K]
	for _, lr := range refs {
		if lr.i != row {
			row = lr.i
			n := len(sup.Rows[row])
			for l, m := range ms {
				cells := m.Rows[row]
				lanes[l] = laneRow{cells: cells, full: len(cells) == n}
			}
		}
		dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
		for l := range dst {
			ln := &lanes[l]
			if ln.full {
				dst[l] = ln.cells[lr.at].Val
				continue
			}
			dst[l], ln.k = valueAt(ln.cells, ln.k, lr.j, zero)
		}
	}
}

// collect reads the product out of the owned live X slots of the executor
// whose arenas are arena (a dead X cell is the ring zero, which Sparse
// drops): one pass over cp.x checks that every owned slot holds a value and
// counts each lane's nonzeros, then each lane's rows are carved from one
// slab of exactly that many cells. cp.x is row-major sorted, so a
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
// returns the value stored there (zero when the row has none) and the
// cursor for the next, larger column.
func valueAt(cells []matrix.Cell, k int, col int32, zero ring.Value) (ring.Value, int) {
	for k < len(cells) && cells[k].Col < col {
		k++
	}
	if k < len(cells) && cells[k].Col == col {
		return cells[k].Val, k + 1
	}
	return zero, k
}
