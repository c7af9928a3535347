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
// outs[l] is as[l]·bs[l].
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
	// support rows), and within() pinned every lane's entries inside the
	// support — so one cursor per lane merge-walks the sorted rows instead
	// of binary-searching every position. The loader has two regimes, chosen
	// by the lane count like lbm.Exec's gather: k > 1 fills a slot's lanes
	// and writes them contiguously with PutLanes; k = 1 keeps its one cursor
	// in registers and stores through PutSlot, because the per-lane arrays
	// and PutLanes' copy cost a lone lane more than they save.
	zero := p.R.Zero()
	buf := make([]ring.Value, K)
	rows := make([][]matrix.Cell, K)
	pos := make([]int, K)
	load := func(refs []loadRef, ms []*matrix.Sparse) {
		row := int32(-1)
		if K == 1 {
			var cells []matrix.Cell
			k := 0
			for _, lr := range refs {
				if lr.i != row {
					row, cells, k = lr.i, ms[0].Rows[lr.i], 0
				}
				var v ring.Value
				v, k = valueAt(cells, k, lr.j, zero)
				x.PutSlot(lr.ref, v)
			}
			return
		}
		for _, lr := range refs {
			if lr.i != row {
				row = lr.i
				for l, m := range ms {
					rows[l], pos[l] = m.Rows[row], 0
				}
			}
			for l := range buf {
				buf[l], pos[l] = valueAt(rows[l], pos[l], lr.j, zero)
			}
			x.PutLanes(lr.ref, buf)
		}
	}
	load(cp.loadA, as)
	load(cp.loadB, bs)
	for l := range buf {
		buf[l] = zero
	}
	for _, lr := range cp.x {
		x.PutLanes(lr.ref, buf)
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
	outs := make([]*matrix.Sparse, K)
	for l := range outs {
		outs[l] = matrix.NewSparse(p.Inst.Xhat.N, p.R)
	}
	for _, lr := range cp.x {
		if !x.Owns(lr.ref.Node) {
			// A partitioned run collects each output at the participant that
			// owns it; the coordinator merges the disjoint partials.
			continue
		}
		if _, ok := x.GetLane(lr.ref, 0); !ok {
			return nil, nil, fmt.Errorf("lbm: owner of X(%d,%d) never received it", lr.i, lr.j)
		}
		vs := x.MustLanes(lr.ref)
		// cp.x is row-major sorted, so appending keeps the row invariant;
		// ring zeros are skipped exactly as Sparse.Set drops them.
		for l := 0; l < K; l++ {
			if p.R.Eq(vs[l], zero) {
				continue
			}
			outs[l].Rows[lr.i] = append(outs[l].Rows[lr.i], matrix.Cell{Col: lr.j, Val: vs[l]})
		}
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

// valueAt advances the cursor k over one sorted row to column col and
// returns the value stored there (zero when the row has none) with the
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
