package dense

import (
	"fmt"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

// TrivialGather is the paper's O(n²)-round baseline (§1.1): every computer
// ships all of its input elements to computer 0, which multiplies locally
// and ships each requested output to its owner. The round count is exactly
// the number of foreign elements computer 0 receives plus the number of
// outputs it distributes — Θ(nnz(A)+nnz(B)+nnz(X̂)), i.e. Θ(n²) on dense
// inputs, because computer 0 can receive only one message per round.
func TrivialGather(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) error {
	const sink lbm.NodeID = 0

	// Phase 1: gather. One foreign element per round.
	var gather []lbm.Send
	for i := range inst.Ahat.N {
		for _, j := range inst.Ahat.Row(i) {
			from := l.OwnerA(int32(i), j)
			gather = append(gather, lbm.Send{From: from, To: sink, Src: lbm.AKey(int32(i), j), Dst: lbm.AKey(int32(i), j), Op: lbm.OpSet})
		}
	}
	for j := range inst.Bhat.N {
		for _, k := range inst.Bhat.Row(j) {
			from := l.OwnerB(int32(j), k)
			gather = append(gather, lbm.Send{From: from, To: sink, Src: lbm.BKey(int32(j), k), Dst: lbm.BKey(int32(j), k), Op: lbm.OpSet})
		}
	}
	for _, s := range gather {
		if err := m.RunRound(lbm.Round{s}); err != nil {
			return fmt.Errorf("dense: trivial gather: %w", err)
		}
	}

	// Phase 2: computer 0 multiplies locally (free). On a partitioned
	// machine only the participant hosting the sink computes.
	if m.Owns(sink) {
		r := m.R
		for i := range inst.Ahat.N {
			arow := inst.Ahat.Row(i)
			xrow := inst.Xhat.Row(i)
			if len(xrow) == 0 {
				continue
			}
			acc := make(map[int32]ring.Value, len(xrow))
			for _, k := range xrow {
				acc[k] = r.Zero()
			}
			for _, j := range arow {
				av := m.MustGet(sink, lbm.AKey(int32(i), j))
				for _, k := range inst.Bhat.Row(int(j)) {
					if cur, wanted := acc[k]; wanted {
						bv := m.MustGet(sink, lbm.BKey(int32(j), k))
						acc[k] = r.Add(cur, r.Mul(av, bv))
					}
				}
			}
			for _, k := range xrow {
				m.Put(sink, lbm.XKey(int32(i), k), acc[k])
			}
		}
	}

	// Phase 3: distribute outputs, one per round.
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			to := l.OwnerX(int32(i), k)
			s := lbm.Send{From: sink, To: to, Src: lbm.XKey(int32(i), k), Dst: lbm.XKey(int32(i), k), Op: lbm.OpSet}
			if err := m.RunRound(lbm.Round{s}); err != nil {
				return fmt.Errorf("dense: trivial distribute: %w", err)
			}
		}
	}

	// Free cleanup of the gathered copies at computer 0 (inputs whose owner
	// is computer 0 itself are kept).
	for i := range inst.Ahat.N {
		for _, j := range inst.Ahat.Row(i) {
			if l.OwnerA(int32(i), j) != sink {
				m.Del(sink, lbm.AKey(int32(i), j))
			}
		}
	}
	for j := range inst.Bhat.N {
		for _, k := range inst.Bhat.Row(j) {
			if l.OwnerB(int32(j), k) != sink {
				m.Del(sink, lbm.BKey(int32(j), k))
			}
		}
	}
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			if l.OwnerX(int32(i), k) != sink {
				m.Del(sink, lbm.XKey(int32(i), k))
			}
		}
	}
	return nil
}
