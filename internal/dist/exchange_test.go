package dist

import (
	"fmt"
	"sync"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// strike drops the ord-th message of one network round.
type strike struct{ round, ord int }

func (s strike) Decide(round, ord int, from, to lbm.NodeID) lbm.FaultKind {
	if round == s.round && ord == s.ord {
		return lbm.FaultDrop
	}
	return lbm.FaultNone
}

func (s strike) Straggles(int, lbm.NodeID) bool { return false }

// TestFaultInsideFusedExchange strikes, in turn, every network round of a
// multiply on a 3-rank TCP mesh whose plan fuses rounds into exchanges. The
// send half takes every verdict of an exchange before its first Send, so
// whichever round of an exchange is struck — its second as much as its first
// — every rank must return the fault the nil-transport engine returns, with
// nothing of that exchange queued or on the wire: as the struck round
// advances, net/bytes_sent moves in exactly as many steps as the schedule
// has exchanges, not as many as it has rounds. The meshes stay alive, and the
// next multiply on the same three meshes is correct.
func TestFaultInsideFusedExchange(t *testing.T) {
	prep, a, b, want := prepCase(t, "lemma31", ring.Real{}, 32, 3)
	sched := prep.Exchanges()
	if sched.Exchanges >= sched.Rounds {
		t.Fatalf("%d rounds in %d exchanges: nothing fused, nothing to test", sched.Rounds, sched.Exchanges)
	}
	meshes := localMeshTable(t, 3, nil)
	multiply := func(inj lbm.Injector) ([]*matrix.Sparse, []error) {
		outs := make([]*matrix.Sparse, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for rk := range meshes {
			wg.Add(1)
			go func(rk int) {
				defer wg.Done()
				outs[rk], _, errs[rk] = prep.MultiplyOpts(a, b, core.ExecOpts{Transport: meshes[rk], Injector: inj})
			}(rk)
		}
		wg.Wait()
		return outs, errs
	}
	checkClean := func(when string) {
		t.Helper()
		outs, errs := multiply(nil)
		merged := matrix.NewSparse(a.N, ring.Real{})
		for rk, x := range outs {
			if errs[rk] != nil {
				t.Fatalf("%s: rank %d: %v", when, rk, errs[rk])
			}
			for i, row := range x.Rows {
				for _, c := range row {
					merged.Set(i, int(c.Col), c.Val)
				}
			}
		}
		if !matrix.Equal(merged, want) {
			t.Fatalf("%s: merged product differs from the single-process product", when)
		}
	}
	sent := func() (total int64) {
		for _, m := range meshes {
			total += m.Counters().Get(CounterBytesSent)
		}
		return total
	}

	checkClean("before any fault")
	steps := map[int64]bool{} // distinct amounts a faulted run put on the wire
	for round := 0; round < sched.Rounds; round++ {
		inj := strike{round: round}
		_, _, err := prep.MultiplyOpts(a, b, core.ExecOpts{Injector: inj})
		wantFault, ok := lbm.AsFault(err)
		if !ok || wantFault.Round != round {
			t.Fatalf("nil-transport run: want a fault in network round %d, got %v", round, err)
		}
		before := sent()
		_, errs := multiply(inj)
		for rk, err := range errs {
			f, ok := lbm.AsFault(err)
			if !ok {
				t.Fatalf("round %d, rank %d: want the injected fault, got %v", round, rk, err)
			}
			if *f != *wantFault {
				t.Errorf("round %d, rank %d: fault %+v, nil transport %+v", round, rk, *f, *wantFault)
			}
			if meshes[rk].Err() != nil {
				t.Fatalf("round %d, rank %d: the fault killed the mesh: %v", round, rk, meshes[rk].Err())
			}
		}
		steps[sent()-before] = true
	}
	// Every exchange before the struck one went out whole (a frame is never
	// empty: its header is 12 bytes), the struck one not at all.
	if len(steps) != sched.Exchanges {
		t.Errorf("faults in %d rounds left %d distinct amounts on the wire, want one per exchange (%d): %v",
			sched.Rounds, len(steps), sched.Exchanges, steps)
	}
	checkClean("after the faults")
}

// TestStoreLimitInsideFusedExchange trips StoreLimit in the second model
// round of a fused exchange. The limit is checked in the receive half, in
// model order at the round's true start state, so the rank that owns the
// overfull node fails with the nil-transport engine's error at the same
// model round; the other ranks hold no overfull node and finish.
func TestStoreLimitInsideFusedExchange(t *testing.T) {
	const nodes = 6
	sp := lbm.NewSlotSpace(nodes, 0)
	for v := int32(0); v < nodes; v++ {
		sp.Slot(v, lbm.AKey(v, v))
	}
	// Node 4 holds one value and receives a new key in each round; nothing
	// round 1 sends was written by round 0, so both share one exchange.
	cp, err := lbm.CompileInto(sp, &lbm.Plan{Rounds: []lbm.Round{{
		{From: 0, To: 4, Src: lbm.AKey(0, 0), Dst: lbm.TKey(0, 4, 0), Op: lbm.OpSet},
		{From: 1, To: 2, Src: lbm.AKey(1, 1), Dst: lbm.TKey(1, 2, 0), Op: lbm.OpSet},
	}, {
		{From: 3, To: 4, Src: lbm.AKey(3, 3), Dst: lbm.TKey(3, 4, 0), Op: lbm.OpSet},
		{From: 5, To: 0, Src: lbm.AKey(5, 5), Dst: lbm.TKey(5, 0, 0), Op: lbm.OpSet},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if s := (&lbm.Chain{Plans: []*lbm.CompiledPlan{cp}}).Schedule(); s.Rounds() != 2 || s.Exchanges() != 1 {
		t.Fatalf("the plan has %d rounds in %d exchanges, want 2 in 1", s.Rounds(), s.Exchanges())
	}
	run := func(opts ...lbm.Option) (*lbm.Exec, error) {
		x := lbm.NewExec(sp.Sizes(), ring.Real{}, append(opts, lbm.WithStoreLimit(2))...)
		for v := int32(0); v < nodes; v++ {
			x.PutSlot(sp.Ref(v, lbm.AKey(v, v)), float64(v))
		}
		return x, x.Run(cp)
	}
	ref, want := run()
	if want == nil || ref.Stats().Rounds != 1 {
		t.Fatalf("nil-transport run: want the limit to trip in round 1 after 1 counted round, got %v after %d", want, ref.Stats().Rounds)
	}

	meshes := localMeshTable(t, 3, nil)
	xs := make([]*lbm.Exec, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for rk := range meshes {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			xs[rk], errs[rk] = run(lbm.WithTransport(meshes[rk]))
		}(rk)
	}
	wg.Wait()
	owner := meshes[0].Part().RankOf(4)
	for rk, err := range errs {
		switch {
		case rk != owner && err != nil:
			t.Errorf("rank %d holds no overfull node, got %v", rk, err)
		case rk == owner && (err == nil || err.Error() != want.Error()):
			t.Errorf("rank %d: %v, nil transport: %v", rk, err, want)
		case rk == owner && xs[rk].Stats().Rounds != ref.Stats().Rounds:
			t.Errorf("rank %d failed after %d counted rounds, nil transport after %d", rk, xs[rk].Stats().Rounds, ref.Stats().Rounds)
		}
	}
	if got := fmt.Sprint(want); got != "round 1: lbm: node 4 exceeds the store limit (3 > 2 values)" {
		t.Errorf("nil-transport error = %q", got)
	}
}
