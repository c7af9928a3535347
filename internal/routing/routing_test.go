package routing

import (
	"math/rand"
	"slices"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

// byKonig and byEuler pin schedule's colouring backend, for the ablations.
func byKonig(_, _ int) bool { return true }
func byEuler(_, _ int) bool { return false }

// properColoring checks that no two edges in a class share an endpoint and
// that every edge is coloured exactly once.
func properColoring(t *testing.T, edges []edge, classes [][]int32) {
	t.Helper()
	seen := make([]bool, len(edges))
	for _, class := range classes {
		l := map[int32]bool{}
		r := map[int32]bool{}
		for _, ei := range class {
			if seen[ei] {
				t.Fatalf("edge %d coloured twice", ei)
			}
			seen[ei] = true
			e := edges[ei]
			if l[e.l] || r[e.r] {
				t.Fatalf("colour class reuses endpoint of edge %d", ei)
			}
			l[e.l] = true
			r[e.r] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("edge %d not coloured", i)
		}
	}
}

// maxDegree returns the maximum degree over all left and right nodes.
func maxDegree(edges []edge, nl, nr int) int {
	dl := make([]int, nl)
	dr := make([]int, nr)
	m := 0
	for _, e := range edges {
		dl[e.l]++
		dr[e.r]++
		if dl[e.l] > m {
			m = dl[e.l]
		}
		if dr[e.r] > m {
			m = dr[e.r]
		}
	}
	return m
}

func randomEdges(rng *rand.Rand, nl, nr, m int) []edge {
	es := make([]edge, m)
	for i := range es {
		es[i] = edge{l: int32(rng.Intn(nl)), r: int32(rng.Intn(nr))}
	}
	return es
}

func TestEulerColorProperAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		nl, nr := 1+rng.Intn(20), 1+rng.Intn(20)
		es := randomEdges(rng, nl, nr, rng.Intn(120))
		classes := eulerColor(es, nl, nr)
		properColoring(t, es, classes)
		delta := maxDegree(es, nl, nr)
		// 2^ceil(log2 delta) <= 2*delta - 1 for delta >= 1.
		if delta > 0 && len(classes) >= 2*delta {
			t.Fatalf("euler used %d colours for Δ=%d", len(classes), delta)
		}
	}
}

func TestKonigColorOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		nl, nr := 1+rng.Intn(15), 1+rng.Intn(15)
		es := randomEdges(rng, nl, nr, rng.Intn(100))
		classes := konigColor(es, nl, nr, maxDegree(es, nl, nr))
		properColoring(t, es, classes)
		delta := maxDegree(es, nl, nr)
		if len(classes) != 0 && len(classes) > delta {
			t.Fatalf("könig used %d colours for Δ=%d", len(classes), delta)
		}
	}
}

func TestColoringEmptyAndParallelEdges(t *testing.T) {
	if got := eulerColor(nil, 3, 3); len(got) != 0 {
		t.Error("empty euler")
	}
	if got := konigColor(nil, 3, 3, 0); len(got) != 0 {
		t.Error("empty könig")
	}
	// 5 parallel edges between the same pair need 5 colours.
	es := []edge{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if got := konigColor(es, 1, 1, 5); len(got) != 5 {
		t.Errorf("parallel edges könig: %d colours", len(got))
	}
	ec := eulerColor(es, 1, 1)
	properColoring(t, es, ec)
}

func TestScheduleDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, konig := range []bool{false, true} {
		for trial := 0; trial < 30; trial++ {
			n := 4 + rng.Intn(20)
			var msgs []lbm.Send
			for i := 0; i < rng.Intn(80); i++ {
				from := lbm.NodeID(rng.Intn(n))
				to := lbm.NodeID(rng.Intn(n))
				msgs = append(msgs, lbm.Send{
					From: from, To: to,
					Src: lbm.TKey(int32(from), int32(i), 0),
					Dst: lbm.TKey(int32(from), int32(i), 1),
					Op:  lbm.OpSet,
				})
			}
			m := lbm.New(n, ring.Counting{})
			for _, msg := range msgs {
				m.Put(msg.From, msg.Src, ring.Value(int(msg.Src.J)+7))
			}
			pick := byEuler
			if konig {
				pick = byKonig
			}
			plan := schedule(msgs, pick)
			if err := m.Run(plan); err != nil {
				t.Fatal(err)
			}
			for _, msg := range msgs {
				v, ok := m.Get(msg.To, msg.Dst)
				if !ok || v != ring.Value(int(msg.Src.J)+7) {
					t.Fatalf("message %v not delivered (got %v,%v)", msg, v, ok)
				}
			}
			// Round bound: König pays exactly max(S,R)+[has local]; Euler
			// pays < 2*max(S,R) rounds (+1 for a local-only extra round).
			s, r, _ := degreeMax(msgs)
			delta := s
			if r > delta {
				delta = r
			}
			if konig && m.Rounds() > delta {
				t.Fatalf("könig schedule used %d rounds for Δ=%d", m.Rounds(), delta)
			}
			if !konig && delta > 0 && m.Rounds() >= 2*delta {
				t.Fatalf("euler schedule used %d rounds for Δ=%d", m.Rounds(), delta)
			}
		}
	}
}

func TestScheduleLocalOnly(t *testing.T) {
	msgs := []lbm.Send{{From: 2, To: 2, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1), Op: lbm.OpSet}}
	m := lbm.New(4, ring.Counting{})
	m.Put(2, lbm.TKey(0, 0, 0), 9)
	plan := schedule(msgs, byEuler)
	if err := m.Run(plan); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 0 {
		t.Errorf("local-only schedule used %d rounds", m.Rounds())
	}
	if v, _ := m.Get(2, lbm.TKey(0, 0, 1)); v != 9 {
		t.Error("local copy missing")
	}
}

// TestScheduleUnionOfDisjointSets checks what lets a batch of jobs on
// disjoint nodes be scheduled as one h-relation with no extra rounds: in
// König's regime, the schedule of the union of vertex-disjoint message sets
// without local copies has, as round t, the sets' own rounds t in order.
// König takes the lowest free colour and flips alternating paths only
// inside one connected component, so each set keeps its own colouring.
func TestScheduleUnionOfDisjointSets(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		var union []lbm.Send
		var sets []*lbm.Plan
		base := 0
		for range 1 + rng.Intn(5) {
			n := 2 + rng.Intn(12)
			var msgs []lbm.Send
			for i := range rng.Intn(60) {
				from, to := rng.Intn(n), rng.Intn(n-1)
				if to >= from {
					to++ // no local copies
				}
				msgs = append(msgs, lbm.Send{
					From: lbm.NodeID(base + from), To: lbm.NodeID(base + to),
					Src: lbm.TKey(int32(base), int32(i), 0), Dst: lbm.TKey(int32(base), int32(i), 1),
				})
			}
			union = append(union, msgs...)
			sets = append(sets, Schedule(msgs))
			base += n
		}
		if s, r, e := degreeMax(union); e > 0 && !konigAffordable(e, max(s, r)) {
			t.Fatalf("trial %d: the union is past König's budget", trial)
		}
		var want []lbm.Round
		for _, p := range sets {
			for i, r := range p.Rounds {
				if i == len(want) {
					want = append(want, nil)
				}
				want[i] = append(want[i], r...)
			}
		}
		got := Schedule(union).Rounds
		if len(got) != len(want) {
			t.Fatalf("trial %d: the union takes %d rounds, its sets %d", trial, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("trial %d, round %d: the union sends %v, its sets %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMaxDegrees(t *testing.T) {
	msgs := []lbm.Send{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}, {From: 4, To: 4},
	}
	s, r, e := degreeMax(msgs)
	if s != 2 || r != 2 || e != 3 {
		t.Errorf("degreeMax = %d,%d,%d, want 2,2,3", s, r, e)
	}
}

// TestPriceIsAutoCost pins Price against Schedule(msgs): on random
// h-relations with local copies, and on none or local copies only, the price
// is exact and equals the schedule's lbm.Plan.Cost. On a star whose E·Δ
// exceeds autoKonigBudget, Schedule splits by Euler, so the price is not exact:
// it has the schedule's messages and Δ rounds, a lower bound of its rounds.
func TestPriceIsAutoCost(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := [][]lbm.Send{nil, {{From: 3, To: 3}, {From: 5, To: 5}}}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		msgs := make([]lbm.Send, rng.Intn(300))
		for i := range msgs {
			msgs[i] = lbm.Send{From: lbm.NodeID(rng.Intn(n)), To: lbm.NodeID(rng.Intn(n)),
				Src: lbm.TKey(int32(i), 0, 0), Dst: lbm.TKey(int32(i), 1, 0)}
		}
		cases = append(cases, msgs)
	}
	for i, msgs := range cases {
		rounds, messages, exact := Price(msgs)
		wantRounds, wantMessages := Schedule(msgs).Cost()
		if !exact || rounds != wantRounds || messages != wantMessages {
			t.Fatalf("case %d: priced %d/%d (exact %v), the schedule costs %d/%d", i, rounds, messages, exact, wantRounds, wantMessages)
		}
	}

	// A star: computer 0 sends E messages over 16 spokes, so Δ = E and
	// E·Δ > 2^27.
	e := 1
	for e*e <= autoKonigBudget {
		e++
	}
	star := make([]lbm.Send, e)
	for i := range star {
		star[i] = lbm.Send{From: 0, To: lbm.NodeID(1 + i%16), Src: lbm.TKey(0, int32(i), 0), Dst: lbm.TKey(0, int32(i), 0)}
	}
	rounds, messages, exact := Price(star)
	if exact || rounds != e || messages != e {
		t.Fatalf("star of %d: priced %d/%d exact=%v, want %d/%d and not exact", e, rounds, messages, exact, e, e)
	}
	auto := Schedule(star)
	autoRounds, autoMessages := auto.Cost()
	if eulerRounds, _ := schedule(star, byEuler).Cost(); autoRounds != eulerRounds {
		t.Fatalf("star: the schedule has %d rounds, Euler's %d: Schedule did not pick Euler", autoRounds, eulerRounds)
	}
	if autoMessages != messages || autoRounds < rounds {
		t.Fatalf("star: the schedule costs %d/%d, below the price %d/%d", autoRounds, autoMessages, rounds, messages)
	}
}

func TestBroadcastPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 40
		m := lbm.New(n, ring.Counting{})
		// Three disjoint groups of random sizes.
		perm := rng.Perm(n)
		sizes := []int{1 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(12)}
		var groups []Group
		off := 0
		for gi, sz := range sizes {
			nodes := make([]lbm.NodeID, sz)
			for i := range nodes {
				nodes[i] = lbm.NodeID(perm[off+i])
			}
			off += sz
			key := lbm.TKey(int32(gi), 0, 0)
			m.Put(nodes[0], key, ring.Value(100+gi))
			groups = append(groups, Group{Nodes: nodes, Key: key})
		}
		plan := BroadcastPlan(groups)
		if err := m.Run(plan); err != nil {
			t.Fatal(err)
		}
		maxSize := 0
		for gi, g := range groups {
			if len(g.Nodes) > maxSize {
				maxSize = len(g.Nodes)
			}
			for _, node := range g.Nodes {
				if v, ok := m.Get(node, g.Key); !ok || v != ring.Value(100+gi) {
					t.Fatalf("group %d node %d missing broadcast value", gi, node)
				}
			}
		}
		if m.Rounds() > ceilLog2(maxSize) {
			t.Fatalf("broadcast used %d rounds for max group %d", m.Rounds(), maxSize)
		}
	}
}

func TestConvergecastPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 40
		m := lbm.New(n, ring.Counting{})
		perm := rng.Perm(n)
		sizes := []int{1 + rng.Intn(12), 1 + rng.Intn(12)}
		var groups []Group
		want := make([]ring.Value, len(sizes))
		off := 0
		for gi, sz := range sizes {
			nodes := make([]lbm.NodeID, sz)
			key := lbm.TKey(int32(gi), 1, 0)
			for i := range nodes {
				nodes[i] = lbm.NodeID(perm[off+i])
				v := ring.Value(rng.Intn(50))
				m.Put(nodes[i], key, v)
				want[gi] += v
			}
			off += sz
			groups = append(groups, Group{Nodes: nodes, Key: key})
		}
		plan := ConvergecastPlan(groups)
		if err := m.Run(plan); err != nil {
			t.Fatal(err)
		}
		maxSize := 0
		for gi, g := range groups {
			if len(g.Nodes) > maxSize {
				maxSize = len(g.Nodes)
			}
			if v, _ := m.Get(g.Nodes[0], g.Key); v != want[gi] {
				t.Fatalf("group %d sum = %v, want %v", gi, v, want[gi])
			}
		}
		if m.Rounds() > ceilLog2(maxSize) {
			t.Fatalf("convergecast used %d rounds for max group %d", m.Rounds(), maxSize)
		}
	}
}

func TestConvergecastTropical(t *testing.T) {
	// Reduction over MinPlus computes the minimum.
	m := lbm.New(8, ring.MinPlus{})
	key := lbm.TKey(0, 0, 0)
	vals := []ring.Value{9, 3, 7, 5, 11, 2, 8, 6}
	nodes := make([]lbm.NodeID, 8)
	for i := range nodes {
		nodes[i] = lbm.NodeID(i)
		m.Put(nodes[i], key, vals[i])
	}
	if err := m.Run(ConvergecastPlan([]Group{{Nodes: nodes, Key: key}})); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(0, key); v != 2 {
		t.Errorf("tropical convergecast = %v, want 2", v)
	}
}

func ceilLog2(n int) int {
	r := 0
	for (1 << r) < n {
		r++
	}
	return r
}

// TestStrategyAblation compares the two colouring backends on random
// h-relations: König is exact (Δ rounds), Euler pays at most the
// next power of two, and Schedule's pick never does worse than Euler.
func TestStrategyAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(24)
		var msgs []lbm.Send
		for i := 0; i < 20+rng.Intn(200); i++ {
			from := lbm.NodeID(rng.Intn(n))
			to := lbm.NodeID(rng.Intn(n))
			if from == to {
				continue
			}
			msgs = append(msgs, lbm.Send{From: from, To: to,
				Src: lbm.TKey(int32(i), 0, 0), Dst: lbm.TKey(int32(i), 1, 0)})
		}
		s, r, _ := degreeMax(msgs)
		delta := s
		if r > delta {
			delta = r
		}
		konig := len(schedule(msgs, byKonig).Rounds)
		euler := len(schedule(msgs, byEuler).Rounds)
		auto := len(Schedule(msgs).Rounds)
		if konig != delta && delta > 0 {
			t.Fatalf("könig %d != Δ %d", konig, delta)
		}
		if euler < delta || (delta > 0 && euler >= 2*delta) {
			t.Fatalf("euler %d outside [Δ, 2Δ) for Δ=%d", euler, delta)
		}
		if auto > euler {
			t.Fatalf("auto %d worse than euler %d", auto, euler)
		}
	}
}

func TestPipelinedBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		k := 1 + rng.Intn(60)
		nodes := make([]lbm.NodeID, n)
		for i := range nodes {
			nodes[i] = lbm.NodeID(i)
		}
		m := lbm.New(n, ring.Counting{})
		keyOf := func(t int) lbm.Key { return lbm.TKey(int32(t), 77, 0) }
		for t := 0; t < k; t++ {
			m.Put(0, keyOf(t), ring.Value(1000+t))
		}
		plan := PipelinedBroadcast(nodes, k, keyOf)
		if err := m.Run(plan); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for tt := 0; tt < k; tt++ {
				v, ok := m.Get(lbm.NodeID(i), keyOf(tt))
				if !ok || v != ring.Value(1000+tt) {
					t.Fatalf("n=%d k=%d: node %d missing item %d", n, k, i, tt)
				}
			}
		}
		// Pipelining bound: ≤ 2k + 2·⌈log₂ n⌉ + 4, far below the k·log n of
		// item-by-item broadcasts for large k.
		bound := 2*k + 2*ceilLog2(n) + 4
		if m.Rounds() > bound {
			t.Errorf("n=%d k=%d: %d rounds > pipeline bound %d", n, k, m.Rounds(), bound)
		}
	}
	// Degenerate cases cost nothing.
	if len(PipelinedBroadcast([]lbm.NodeID{3}, 5, func(int) lbm.Key { return lbm.TKey(0, 0, 0) }).Rounds) != 0 {
		t.Error("single node broadcast should be free")
	}
}

// BenchmarkColoring compares the two edge-colouring backends' planning cost.
func BenchmarkColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var msgs []lbm.Send
	n := 512
	for i := 0; i < 16*n; i++ {
		from := lbm.NodeID(rng.Intn(n))
		to := lbm.NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		msgs = append(msgs, lbm.Send{From: from, To: to,
			Src: lbm.TKey(int32(i), 0, 0), Dst: lbm.TKey(int32(i), 1, 0)})
	}
	for _, bc := range []struct {
		name string
		pick func(e, delta int) bool
	}{{"euler", byEuler}, {"konig", byKonig}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := schedule(msgs, bc.pick)
				if i == 0 {
					b.ReportMetric(float64(len(p.Rounds)), "rounds")
				}
			}
		})
	}
}
