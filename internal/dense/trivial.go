package dense

import (
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
)

// Gather plans the paper's O(n²)-round baseline (§1.1): every computer
// ships its input elements to computer 0, one per round, which multiplies
// locally and ships each output to its owner, one per round. The round
// count is exactly the number of foreign elements computer 0 receives plus
// the number of foreign outputs it distributes: Θ(n²) on dense inputs,
// because computer 0 can receive only one message per round. An element
// that lies on no triangle changes no product, so the gather ships the
// live elements only (graph.Instance.Live); on a dense instance that is
// every element.
func Gather(l *lbm.Layout, inst *graph.Instance) (Routine, error) {
	const sink lbm.NodeID = 0
	liveA, liveB, liveX := inst.Live()
	gather, scatter := &lbm.Plan{}, &lbm.Plan{}
	// cleanup lists the gathered copies at computer 0, in the order A, B,
	// X; a copy whose owner is computer 0 itself is kept.
	var cleanup []lbm.Key
	each := func(sup *matrix.Support, live []bool, f func(i, j int32)) {
		for i := range sup.N {
			for k := sup.Off[i]; k < sup.Off[i+1]; k++ {
				if live[k] {
					f(int32(i), sup.Col[k])
				}
			}
		}
	}
	ship := func(from lbm.NodeID, k lbm.Key) {
		gather.Append(lbm.Round{{From: from, To: sink, Src: k, Dst: k, Op: lbm.OpSet}})
		if from != sink {
			cleanup = append(cleanup, k)
		}
	}
	each(inst.Ahat, liveA, func(i, j int32) { ship(l.OwnerA(i, j), lbm.AKey(i, j)) })
	each(inst.Bhat, liveB, func(j, k int32) { ship(l.OwnerB(j, k), lbm.BKey(j, k)) })
	each(inst.Xhat, liveX, func(i, k int32) {
		to, key := l.OwnerX(i, k), lbm.XKey(i, k)
		scatter.Append(lbm.Round{{From: sink, To: to, Src: key, Dst: key, Op: lbm.OpSet}})
		if to != sink {
			cleanup = append(cleanup, key)
		}
	})
	tris := inst.Triangles()
	return func(e lbm.Emitter) error {
		if err := e.Route(gather, "dense/gather", "dense: trivial gather", false); err != nil {
			return err
		}
		// Computer 0 multiplies locally (free); on a partitioned machine
		// only the participant hosting it computes.
		for _, t := range tris {
			e.MulAcc(sink, lbm.AKey(t.I, t.J), lbm.BKey(t.J, t.K), lbm.XKey(t.I, t.K))
		}
		if err := e.Route(scatter, "dense/distribute", "dense: trivial distribute", false); err != nil {
			return err
		}
		for _, k := range cleanup {
			e.Clear(sink, k)
		}
		return nil
	}, nil
}
