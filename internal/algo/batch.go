package algo

import (
	"fmt"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// MultiplyBatch runs the prepared plans on k value sets at once, a scalar
// multiply being the batch with k = 1; MultiplyValues is the same walk over
// values already in listing order, which is what the serving layer runs.
// Every lane must realize (a subset of) the prepared supports: positions
// outside the known structure are rejected, positions inside it but absent
// load as the ring Zero (the supported model's "indicator" semantics,
// §2.1). The lanes share one instruction-stream walk: the batch pays one
// presence check and one decode per instruction and one stats update per
// round regardless of k, which is where the batching throughput win lives.
// Outputs come back lane for lane: outs[l] is as[l]·bs[l], each lane's
// cells carved from one slab.
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
// one round sequence. The Stats carry totals only: their SendLoad and
// RecvLoad are nil, the per-node loads being NodeLoads. The machine options are per call — tracing
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
	phase1, err := p.walk(x, arena, K)
	if err != nil {
		return nil, nil, err
	}
	outs, err := p.collect(x, arena, K)
	if err != nil {
		return nil, nil, err
	}
	return outs, p.result(x, K, phase1), nil
}

// MultiplyValues is MultiplyBatch over flat lanes: as[l] and bs[l] hold
// lane l's values at the positions of Inst.Ahat and Inst.Bhat in row-major
// order, and xs[l] receives its product at the positions of Inst.Xhat, a
// dead cell (on no triangle) receiving the ring zero. Each slice must be
// exactly as long as its support. The caller vouches for the structure (the
// values are those of the prepared supports, listed), so there is no
// containment pass: each live cell is loaded by its index in the listing,
// and the dead cells are never read.
func (p *Prepared) MultiplyValues(as, bs, xs [][]ring.Value, mopts ...lbm.Option) (*Result, error) {
	K := len(as)
	if K == 0 {
		return nil, fmt.Errorf("algo: empty batch")
	}
	if len(bs) != K || len(xs) != K {
		return nil, fmt.Errorf("algo: batch lanes mismatched: %d A, %d B and %d X value sets", K, len(bs), len(xs))
	}
	inst := p.Inst
	for l := range as {
		for _, v := range [...]struct {
			m    string
			vals []ring.Value
			nnz  int
		}{{"A", as[l], inst.Ahat.NNZ}, {"B", bs[l], inst.Bhat.NNZ}, {"X", xs[l], inst.Xhat.NNZ}} {
			if len(v.vals) != v.nnz {
				return nil, fmt.Errorf("algo: lane %d: %d %s values for %d support positions", l, len(v.vals), v.m, v.nnz)
			}
		}
	}
	cp := p.compiled
	x, pool := cp.execFor(K)
	x.Configure(mopts...)
	defer func() {
		x.Reset()
		pool.Put(x)
	}()
	arena := x.BeginLoad(cp.loaded, cp.dead)
	loadFlat(arena, cp.loadA, as)
	loadFlat(arena, cp.loadB, bs)
	phase1, err := p.walk(x, arena, K)
	if err != nil {
		return nil, err
	}
	if err := p.collectFlat(x, arena, xs); err != nil {
		return nil, err
	}
	return p.result(x, K, phase1), nil
}

// walk runs a loaded executor through the program, the live X slots
// zeroed first. It returns the rounds phase 1 took: those the program
// counted before its split, where the job starts.
func (p *Prepared) walk(x *lbm.Exec, arena [][]ring.Value, K int) (int, error) {
	cp, zero := p.compiled, p.R.Zero()
	for _, lr := range cp.x {
		dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
		for l := range dst {
			dst[l] = zero
		}
	}
	return x.RunProgram(cp.prog)
}

// result is the Result of a finished walk of K lanes.
func (p *Prepared) result(x *lbm.Exec, K, phase1 int) *Result {
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
	return &res
}

// loadFlat copies the live cells refs into the arenas, lane l of each slot
// from vals[l] at the cell's index in the listing.
func loadFlat(arena [][]ring.Value, refs []loadRef, vals [][]ring.Value) {
	K := len(vals)
	if K == 1 {
		v := vals[0]
		for _, lr := range refs {
			arena[lr.ref.Node][lr.ref.Slot] = v[lr.k]
		}
		return
	}
	for _, lr := range refs {
		dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
		for l := range dst {
			dst[l] = vals[l][lr.k]
		}
	}
}

// collectFlat writes the product into xs: every position the ring zero,
// then each owned live X slot's value at its index in the listing. Like
// collect it fails on an owned slot that never received its value.
func (p *Prepared) collectFlat(x *lbm.Exec, arena [][]ring.Value, xs [][]ring.Value) error {
	K, zero := len(xs), p.R.Zero()
	for _, out := range xs {
		for k := range out {
			out[k] = zero
		}
	}
	for _, lr := range p.compiled.x {
		if !x.Owns(lr.ref.Node) {
			continue
		}
		if !x.Present(lr.ref) {
			return p.neverReceived(lr)
		}
		for l, v := range arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K] {
			xs[l][lr.k] = v
		}
	}
	return nil
}

// neverReceived reports the owned X slot of lr that holds no value after
// the walk.
func (p *Prepared) neverReceived(lr loadRef) error {
	xhat := p.Inst.Xhat
	return fmt.Errorf("lbm: owner of X(%d,%d) never received it", rowOf(xhat.Off, 0, lr.k), xhat.Col[lr.k])
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
// l of each slot from ms[l]. refs are in row-major order, so one row cursor
// over sup's offsets places each cell, and every lane's rows lie inside sup,
// so a lane that holds a whole row finds a cell at its support position; a
// partial row is merge-walked with one cursor, and a cell it lacks loads as
// zero. Like lbm.Exec's gather, the copy has two regimes chosen by the lane
// count: k > 1 walks slot-major with one laneRow per lane, k = 1 keeps its
// one row in registers, which measured ~5% faster on BenchmarkMultiplyUS256.
func loadLive(arena [][]ring.Value, refs []loadRef, sup *matrix.Support, ms []*matrix.Sparse, lanes []laneRow, zero ring.Value) {
	K := len(ms)
	off, col := sup.Off, sup.Col
	row := int32(-1)
	if K == 1 {
		var ln laneRow
		for _, lr := range refs {
			if lr.k >= off[row+1] {
				row = rowOf(off, row+1, lr.k)
				cells := ms[0].Rows[row]
				ln = laneRow{cells: cells, full: len(cells) == sup.RowLen(int(row))}
			}
			dst := &arena[lr.ref.Node][lr.ref.Slot]
			if ln.full {
				*dst = ln.cells[lr.k-off[row]].Val
				continue
			}
			*dst, ln.k = valueAt(ln.cells, ln.k, col[lr.k], zero)
		}
		return
	}
	lanes = lanes[:K]
	for _, lr := range refs {
		if lr.k >= off[row+1] {
			row = rowOf(off, row+1, lr.k)
			n := sup.RowLen(int(row))
			for l, m := range ms {
				cells := m.Rows[row]
				lanes[l] = laneRow{cells: cells, full: len(cells) == n}
			}
		}
		dst := arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K]
		at := lr.k - off[row]
		for l := range dst {
			ln := &lanes[l]
			if ln.full {
				dst[l] = ln.cells[at].Val
				continue
			}
			dst[l], ln.k = valueAt(ln.cells, ln.k, col[lr.k], zero)
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
	off, col := p.Inst.Xhat.Off, p.Inst.Xhat.Col
	nnz := make([]int, 2*K)
	for _, lr := range cp.x {
		if !x.Owns(lr.ref.Node) {
			continue
		}
		if !x.Present(lr.ref) {
			return nil, p.neverReceived(lr)
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
		if lr.k >= off[row+1] {
			if row >= 0 {
				closeRow()
			}
			row = rowOf(off, row+1, lr.k)
		}
		for l, v := range arena[lr.ref.Node][int(lr.ref.Slot)*K:][:K] {
			if !r.Eq(v, zero) {
				slabs[l] = append(slabs[l], matrix.Cell{Col: col[lr.k], Val: v})
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
