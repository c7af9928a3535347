package lbm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lbmm/internal/ring"
)

const chainNodes = 6

// randomChain builds 1–4 plans to be run back to back over one small key
// space, so that rounds collide on slots in every way the hazard pass has to
// tell apart: a real message forwarding what the previous round's real
// message or local copy just wrote (read-after-write, the only thing that
// may cut an exchange), writes to a slot an earlier round of the exchange
// read, double writes to one slot, OpSet/OpAcc/OpSub mixes, and rounds of
// only local copies. Sources are drawn from keys present in model order, so
// some slots are absent when a later round's sends would run ahead.
func randomChain(rng *rand.Rand) ([]*Plan, []load) {
	present := make([][]Key, chainNodes)
	var loads []load
	for v := 0; v < chainNodes; v++ {
		for j := 0; j < 3; j++ {
			k := AKey(int32(v), int32(j))
			present[v] = append(present[v], k)
			loads = append(loads, load{NodeID(v), k, rng.Float64()})
		}
	}
	recent := make([][]Key, chainNodes) // keys the previous round wrote, by node
	source := func(v int) Key {
		if len(recent[v]) > 0 && rng.Intn(4) == 0 {
			return recent[v][rng.Intn(len(recent[v]))]
		}
		return present[v][rng.Intn(len(present[v]))]
	}
	dest := func(v int) Key { return TKey(0, int32(v), int32(rng.Intn(4))) }
	op := func() Op { return Op(rng.Intn(3)) } // OpSet, OpAcc, OpSub

	plans := make([]*Plan, 1+rng.Intn(4))
	for pi := range plans {
		p := &Plan{}
		for t, rounds := 0, 1+rng.Intn(4); t < rounds; t++ {
			var r Round
			if rng.Intn(5) > 0 { // a network round; otherwise local copies only
				senders, receivers := rng.Perm(chainNodes), rng.Perm(chainNodes)
				for i := 0; i < chainNodes; i++ {
					if f, to := senders[i], receivers[i]; f != to && rng.Intn(3) > 0 {
						r = append(r, Send{From: NodeID(f), To: NodeID(to), Src: source(f), Dst: dest(to), Op: op()})
					}
				}
			}
			for v := 0; v < chainNodes; v++ {
				if rng.Intn(3) == 0 {
					r = append(r, Send{From: NodeID(v), To: NodeID(v), Src: source(v), Dst: dest(v), Op: op()})
				}
			}
			p.Append(r)
			for v := range recent {
				recent[v] = recent[v][:0]
			}
			for _, s := range r {
				recent[s.To] = append(recent[s.To], s.Dst)
				present[s.To] = append(present[s.To], s.Dst)
			}
		}
		plans[pi] = p
	}
	return plans, loads
}

// referenceSchedule is the hazard rule written the slow way, over a map,
// independently of buildSchedule — and with the two ways of getting it wrong
// that the property test must catch: fuseAll rides every round on the first
// exchange, ignoreLocal forgets the writes of local copies.
func referenceSchedule(plans []*CompiledPlan, fuseAll, ignoreLocal bool) *Schedule {
	s := &Schedule{}
	var written map[SlotRef]bool // nil: no exchange open
	for pi, cp := range plans {
		for t := 0; t < cp.NumRounds(); t++ {
			lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
			if cp.Real[t] > 0 {
				ride := written != nil
				for i := lo; i < hi; i++ {
					if cp.From[i] != cp.To[i] && written[SlotRef{NodeID(cp.From[i]), cp.SrcSlot[i]}] && !fuseAll {
						ride = false
					}
				}
				if !ride {
					written = map[SlotRef]bool{}
					s.exch = append(s.exch, int32(len(s.net)))
				}
				s.net = append(s.net, netRound{int32(pi), int32(t)})
			}
			for i := lo; i < hi && written != nil; i++ {
				if cp.From[i] != cp.To[i] || !ignoreLocal {
					written[SlotRef{NodeID(cp.To[i]), cp.DstSlot[i]}] = true
				}
			}
		}
	}
	s.exch = append(s.exch, int32(len(s.net)))
	return s
}

// chainTables are the node→rank maps of the property test by participant
// count: the modulo map (nil) and an uneven one.
var chainTables = map[int][]int{2: {1, 1, 0, 1, 0, 0}, 3: {2, 2, 0, 1, 0, 0}, 4: {3, 2, 0, 1, 0, 0}}

// runPartitioned runs one engine per participant of a fresh router, each on
// its own goroutine, and returns their errors; a participant that fails
// releases the others from the barrier.
func runPartitioned(ranks int, table []int, run func(rank int, tt *testTransport) error) ([]*testTransport, []error) {
	router := newTestRouter(ranks, table)
	tts := make([]*testTransport, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := range tts {
		tts[rank] = &testTransport{router: router, rank: rank}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if errs[rank] = run(rank, tts[rank]); errs[rank] != nil {
				router.fail()
			}
		}(rank)
	}
	wg.Wait()
	return tts, errs
}

// TestExchangeScheduleParity is the property the fused walk rests on. Over
// random chains (randomChain), partitioned over 2–4 participants under the
// modulo map and an uneven table, with 1 and 3 lanes: the fused Exec, the
// per-round Machine — the unfused oracle, one barrier per network round —
// and the nil-transport Exec agree on every present slot, on Stats and on
// RoundBytes; every participant calls Deliver exactly once per exchange of
// the schedule; and buildSchedule agrees with the rule written the slow way.
//
// It also checks that it could fail: a schedule that fuses everything, and
// one that ignores the writes of local copies, each injected in place of the
// pass's own, must break the agreement on some trial.
func TestExchangeScheduleParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const trials = 150
	caught := map[string]int{}
	var netRounds, exchanges int
	for trial := 0; trial < trials; trial++ {
		plans, loads := randomChain(rng)
		ranks := 2 + trial%3
		lanes := 1 + 2*(trial%2)
		var table []int
		if trial%4 >= 2 {
			table = chainTables[ranks]
		}
		rankOf := newTestRouter(ranks, table).rankOf

		sp := NewSlotSpace(chainNodes, 0)
		for _, l := range loads {
			sp.Slot(l.node, l.key)
		}
		cps := make([]*CompiledPlan, len(plans))
		for i, p := range plans {
			var err error
			if cps[i], err = CompileInto(sp, p); err != nil {
				t.Fatalf("trial %d: compile plan %d: %v", trial, i, err)
			}
		}
		newExec := func(opts ...Option) *Exec {
			x := NewExecBatch(sp.Sizes(), lanes, ring.Real{}, opts...)
			for _, l := range loads {
				for lane := 0; lane < lanes; lane++ {
					x.PutLane(sp.Ref(l.node, l.key), lane, l.val+ring.Value(lane))
				}
			}
			return x
		}

		// The nil-transport engine, plan by plan.
		ref := newExec()
		for i, cp := range cps {
			if err := ref.Run(cp); err != nil {
				t.Fatalf("trial %d: nil transport, plan %d: %v", trial, i, err)
			}
		}
		want := ref.Stats()

		// The unfused oracle: the map engine, one barrier per network round.
		ms := make([]*Machine, ranks)
		tts, errs := runPartitioned(ranks, table, func(rank int, tt *testTransport) error {
			m := New(chainNodes, ring.Real{}, WithTransport(tt))
			for _, l := range loads {
				m.Put(l.node, l.key, l.val)
			}
			ms[rank] = m
			for _, p := range plans {
				if err := m.Run(p); err != nil {
					return err
				}
			}
			return nil
		})
		var mstats []Stats
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: per-round machine, rank %d: %v", trial, rank, err)
			}
			if tts[rank].delivers != want.Rounds {
				t.Fatalf("trial %d: per-round machine, rank %d: %d barriers for %d network rounds", trial, rank, tts[rank].delivers, want.Rounds)
			}
			mstats = append(mstats, ms[rank].Stats())
		}
		if err := execStatsErr(MergeStats(mstats...), want, cps...); err != nil {
			t.Fatalf("trial %d: per-round machine against the nil-transport engine: %v", trial, err)
		}

		// The fused walk under a given schedule (nil: the pass's own).
		// diverged reports the first disagreement with the reference.
		fused := func(sched *Schedule) (delivers []int, diverged error) {
			chain := &Chain{Plans: cps}
			if sched != nil {
				chain.sched.Store(sched)
			}
			xs := make([]*Exec, ranks)
			tts, errs := runPartitioned(ranks, table, func(rank int, tt *testTransport) error {
				xs[rank] = newExec(WithTransport(tt))
				for i := range cps {
					if err := xs[rank].RunChained(chain, i); err != nil {
						return err
					}
				}
				return nil
			})
			var stats []Stats
			for rank, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("rank %d: %w", rank, err)
				}
				delivers = append(delivers, tts[rank].delivers)
				stats = append(stats, xs[rank].Stats())
			}
			sp.EachKey(func(node NodeID, k Key, slot int32) {
				at := SlotRef{Node: node, Slot: slot}
				for lane := 0; lane < lanes && diverged == nil; lane++ {
					rv, rok := ref.GetLane(at, lane)
					gv, gok := xs[rankOf(node)].GetLane(at, lane)
					if rok != gok || rv != gv {
						diverged = fmt.Errorf("node %d key %v lane %d: nil transport (%v,%v), fused (%v,%v)", node, k, lane, rv, rok, gv, gok)
					}
				}
				if mv, mok := ms[rankOf(node)].Get(node, k); diverged == nil {
					if rv, rok := ref.GetLane(at, 0); rok != mok || rv != mv {
						diverged = fmt.Errorf("node %d key %v: nil transport (%v,%v), per-round machine (%v,%v)", node, k, rv, rok, mv, mok)
					}
				}
			})
			if got := MergeStats(stats...); diverged == nil && !reflect.DeepEqual(got, want) {
				diverged = fmt.Errorf("stats diverge:\n nil    %+v\n merged %+v", want, got)
			}
			return delivers, diverged
		}

		sched := buildSchedule(cps)
		if slow := referenceSchedule(cps, false, false); !reflect.DeepEqual(sched, slow) {
			t.Fatalf("trial %d: buildSchedule = %+v, the rule written out says %+v", trial, sched, slow)
		}
		if sched.Rounds() != want.Rounds || sched.Exchanges() > sched.Rounds() {
			t.Fatalf("trial %d: schedule has %d exchanges over %d rounds, the run has %d rounds", trial, sched.Exchanges(), sched.Rounds(), want.Rounds)
		}
		netRounds += sched.Rounds()
		exchanges += sched.Exchanges()
		delivers, err := fused(nil)
		if err != nil {
			t.Fatalf("trial %d (%d ranks, %d lanes, table %v): %v", trial, ranks, lanes, table, err)
		}
		for rank, n := range delivers {
			if n != sched.Exchanges() {
				t.Fatalf("trial %d: rank %d called Deliver %d times, the schedule has %d exchanges", trial, rank, n, sched.Exchanges())
			}
		}

		for name, mutant := range map[string]*Schedule{
			"fuse everything":          referenceSchedule(cps, true, false),
			"ignore local-copy writes": referenceSchedule(cps, false, true),
		} {
			if _, err := fused(mutant); err != nil {
				caught[name]++
			}
		}
	}
	t.Logf("%d network rounds in %d exchanges over %d chains", netRounds, exchanges, trials)
	if exchanges == netRounds {
		t.Errorf("no chain fused anything: the property was not exercised")
	}
	for _, name := range []string{"fuse everything", "ignore local-copy writes"} {
		t.Logf("mutant %q caught on %d of %d chains", name, caught[name], trials)
		if caught[name] == 0 {
			t.Errorf("a schedule built to %s passed every trial: the test cannot fail", name)
		}
	}
}

// TestScheduleFirstUseConcurrent has several executors reach a fresh chain's
// lazily built schedule at once — pooled executors of one prepared plan do —
// and checks that they all walk one and the same schedule, correctly.
func TestScheduleFirstUseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p, loads := randomPlan(rng, 6, 6, true)
	sp, ref, err := runCompiled(t, p, loads, ring.Real{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatal(err)
	}
	c := &Chain{Plans: []*CompiledPlan{cp}}
	const executors = 8
	scheds := make([]*Schedule, executors)
	errs := make([]error, executors)
	var wg sync.WaitGroup
	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := NewExec(sp.Sizes(), ring.Real{}, WithTransport(&Loopback{}))
			for _, l := range loads {
				x.PutSlot(sp.Ref(l.node, l.key), l.val)
			}
			if errs[g] = x.RunChained(c, 0); errs[g] == nil && !reflect.DeepEqual(x.Stats(), ref.Stats()) {
				errs[g] = fmt.Errorf("stats %+v, want %+v", x.Stats(), ref.Stats())
			}
			scheds[g] = c.Schedule()
		}(g)
	}
	wg.Wait()
	for g := range scheds {
		if errs[g] != nil {
			t.Errorf("executor %d: %v", g, errs[g])
		}
		if scheds[g] != scheds[0] {
			t.Errorf("executor %d walked a different schedule value than executor 0", g)
		}
	}
}
