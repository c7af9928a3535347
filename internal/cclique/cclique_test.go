package cclique

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

func TestValidateRejectsDuplicatesAndRange(t *testing.T) {
	p := &lbm.Plan{}
	p.Append(lbm.Round{
		{From: 0, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)},
		{From: 0, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 2)},
	})
	if err := Validate(p, 4); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v", err)
	}
	p2 := &lbm.Plan{}
	p2.Append(lbm.Round{{From: 0, To: 9, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)}})
	if err := Validate(p2, 4); err == nil {
		t.Error("range violation accepted")
	}
	// A full clique round is valid: n(n-1) messages, one per ordered pair.
	p3 := AllToAll(5, func(u lbm.NodeID) lbm.Key { return lbm.TKey(int32(u), 0, 0) },
		func(u lbm.NodeID) lbm.Key { return lbm.TKey(int32(u), 1, 0) })
	if err := Validate(p3, 5); err != nil {
		t.Error(err)
	}
}

// TestSimulationTheorem executes the §1.5 statement: a 1-round clique
// all-to-all runs in exactly n−1 low-bandwidth rounds and delivers every
// message.
func TestSimulationTheorem(t *testing.T) {
	for _, n := range []int{4, 9, 16} {
		src := func(u lbm.NodeID) lbm.Key { return lbm.TKey(int32(u), 0, 0) }
		dst := func(u lbm.NodeID) lbm.Key { return lbm.TKey(int32(u), 1, 0) }
		cc := AllToAll(n, src, dst)

		m := lbm.New(n, ring.Counting{})
		for u := 0; u < n; u++ {
			m.Put(lbm.NodeID(u), src(lbm.NodeID(u)), ring.Value(u+100))
		}
		low, err := Simulate(cc, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(low); err != nil {
			t.Fatal(err)
		}
		// T_cc = 1 ⇒ T_lbm ≤ n·T_cc; with exact colouring it is n−1.
		if m.Rounds() != n-1 {
			t.Errorf("n=%d: simulated in %d rounds, want exactly %d", n, m.Rounds(), n-1)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				got, ok := m.Get(lbm.NodeID(v), dst(lbm.NodeID(u)))
				if !ok || got != ring.Value(u+100) {
					t.Fatalf("n=%d: %d's value missing at %d", n, u, v)
				}
			}
		}
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	p := &lbm.Plan{}
	p.Append(lbm.Round{
		{From: 1, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)},
		{From: 1, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)},
	})
	if _, err := Simulate(p, 4); err == nil {
		t.Error("invalid plan simulated")
	}
}

// TestMultiRoundPipelines checks that multi-round clique plans compose: two
// clique rounds that forward values along a ring cost ≤ 2(n−1) rounds and
// move data two hops.
func TestMultiRoundPipelines(t *testing.T) {
	n := 6
	key := func(h int) lbm.Key { return lbm.TKey(int32(h), 7, 0) }
	m := lbm.New(n, ring.Counting{})
	for u := 0; u < n; u++ {
		m.Put(lbm.NodeID(u), key(0), ring.Value(u))
	}
	p := &lbm.Plan{}
	for hop := 0; hop < 2; hop++ {
		var r lbm.Round
		for u := 0; u < n; u++ {
			r = append(r, lbm.Send{
				From: lbm.NodeID(u), To: lbm.NodeID((u + 1) % n),
				Src: key(hop), Dst: key(hop + 1), Op: lbm.OpSet,
			})
		}
		p.Append(r)
	}
	low, err := Simulate(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(low); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() > 2*(n-1) {
		t.Errorf("two clique rounds took %d > 2(n-1) rounds", m.Rounds())
	}
	for u := 0; u < n; u++ {
		want := ring.Value((u + n - 2) % n)
		if got, _ := m.Get(lbm.NodeID(u), key(2)); got != want {
			t.Errorf("node %d two-hop value %v, want %v", u, got, want)
		}
	}
}

// TestDenseMMSimulation runs the O(n)-clique-round dense multiplication
// through the simulation: the plan is a valid clique plan (n rounds) whose
// low-bandwidth simulation costs Θ(n²) rounds, and the product is correct.
func TestDenseMMSimulation(t *testing.T) {
	n := 8
	r := ring.NewGFp(101)
	m := lbm.New(n, r)
	rng := rand.New(rand.NewSource(4))
	a := make([][]ring.Value, n)
	b := make([][]ring.Value, n)
	for i := 0; i < n; i++ {
		a[i] = make([]ring.Value, n)
		b[i] = make([]ring.Value, n)
		for j := 0; j < n; j++ {
			a[i][j] = r.Rand(rng)
			b[i][j] = r.Rand(rng)
			m.Put(lbm.NodeID(i), lbm.AKey(int32(i), int32(j)), a[i][j])
			m.Put(lbm.NodeID(i), lbm.BKey(int32(i), int32(j)), b[i][j])
		}
	}
	cc := DenseMM(n)
	if err := Validate(cc, n); err != nil {
		t.Fatal(err)
	}
	if len(cc.Rounds) != n {
		t.Fatalf("clique plan has %d rounds, want %d", len(cc.Rounds), n)
	}
	low, err := Simulate(cc, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(low); err != nil {
		t.Fatal(err)
	}
	// Θ(n²) low-bandwidth rounds: n clique rounds × (n−1) each.
	if got := m.Rounds(); got != n*(n-1) {
		t.Errorf("simulated in %d rounds, want %d", got, n*(n-1))
	}
	LocalMM(m, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			want := r.Zero()
			for j := 0; j < n; j++ {
				want = r.Add(want, r.Mul(a[i][j], b[j][k]))
			}
			got, _ := m.Get(lbm.NodeID(i), lbm.XKey(int32(i), int32(k)))
			if got != want {
				t.Fatalf("X(%d,%d) = %v, want %v", i, k, got, want)
			}
		}
	}
}

// cliqueOracle runs a clique plan on per-computer stores the way the model
// defines a round: every message reads the round's start state, then all of
// them are delivered. It is the specification Simulate must match.
func cliqueOracle(p *lbm.Plan, stores []map[lbm.Key]ring.Value, r ring.Semiring) {
	for _, round := range p.Rounds {
		vals := make([]ring.Value, len(round))
		for i, s := range round {
			vals[i] = stores[s.From][s.Src]
		}
		for i, s := range round {
			if s.Op == lbm.OpAcc {
				cur, ok := stores[s.To][s.Dst]
				if !ok {
					cur = r.Zero()
				}
				vals[i] = r.Add(cur, vals[i])
			}
			stores[s.To][s.Dst] = vals[i]
		}
	}
}

// conflicted reports whether some message of round reads a (computer, key)
// that the round also writes: the case a schedule spread over several
// machine rounds would read torn.
func conflicted(round lbm.Round) bool {
	type held struct {
		node lbm.NodeID
		key  lbm.Key
	}
	written := map[held]bool{}
	for _, s := range round {
		written[held{s.To, s.Dst}] = true
	}
	for _, s := range round {
		if written[held{s.From, s.Src}] {
			return true
		}
	}
	return false
}

// TestCliqueRoundReadsStartState holds Simulate to cliqueOracle: on a
// three-computer round where every computer's key is both sent and
// overwritten, and on random Validate-clean plans that include such rounds.
// Each simulation also costs no fewer exchanges than its dependency depth
// and no more than its clique rounds: one clique round's messages read only
// its start state, so its rounds never need a second barrier.
func TestCliqueRoundReadsStartState(t *testing.T) {
	r := ring.NewGFp(1009)
	key := func(slot int) lbm.Key { return lbm.TKey(int32(slot), 5, 0) }
	check := func(name string, n int, cc *lbm.Plan, start func(u, slot int) ring.Value, slots int) {
		t.Helper()
		if err := Validate(cc, n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := lbm.New(n, r)
		stores := make([]map[lbm.Key]ring.Value, n)
		for u := range stores {
			stores[u] = map[lbm.Key]ring.Value{}
			for slot := range slots {
				v := start(u, slot)
				stores[u][key(slot)] = v
				m.Put(lbm.NodeID(u), key(slot), v)
			}
		}
		low, err := Simulate(cc, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Run(low); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cliqueOracle(cc, stores, r)
		for u := range stores {
			for k, want := range stores[u] {
				if got, ok := m.Get(lbm.NodeID(u), k); !ok || got != want {
					t.Fatalf("%s: computer %d key %v = %v,%v, want %v", name, u, k, got, ok, want)
				}
			}
		}
		cp, err := lbm.CompileInto(lbm.NewSlotSpace(n, 0), low)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ch := &lbm.Chain{Plans: []*lbm.CompiledPlan{cp}}
		depth, exchanges := ch.Depth(), ch.Schedule().Exchanges()
		if depth > exchanges || exchanges > len(cc.Rounds) {
			t.Fatalf("%s: depth %d, %d exchanges, %d clique rounds: want depth ≤ exchanges ≤ clique rounds",
				name, depth, exchanges, len(cc.Rounds))
		}
	}

	// Computer u sends K to u+1 into K, and to u+2 into K2: every K is read
	// and overwritten in the same round.
	const n = 3
	var round lbm.Round
	for u := range n {
		round = append(round,
			lbm.Send{From: lbm.NodeID(u), To: lbm.NodeID((u + 1) % n), Src: key(0), Dst: key(0), Op: lbm.OpSet},
			lbm.Send{From: lbm.NodeID(u), To: lbm.NodeID((u + 2) % n), Src: key(0), Dst: key(1), Op: lbm.OpSet})
	}
	ring3 := &lbm.Plan{}
	ring3.Append(round)
	check("ring of three", n, ring3, func(u, slot int) ring.Value { return ring.Value(10 + u + 100*slot) }, 2)

	rng := rand.New(rand.NewSource(52))
	withConflicts := 0
	for trial := range 60 {
		n := 2 + rng.Intn(7)
		slots := 1 + rng.Intn(3)
		cc := &lbm.Plan{}
		for range 1 + rng.Intn(5) {
			var round lbm.Round
			taken := map[[2]int]bool{} // (receiver, destination slot) written this round
			for u := range n {
				for v := range n {
					dst := rng.Intn(slots)
					if rng.Intn(2) == 0 || taken[[2]int{v, dst}] {
						continue
					}
					taken[[2]int{v, dst}] = true
					op := lbm.OpSet
					if rng.Intn(2) == 0 {
						op = lbm.OpAcc
					}
					round = append(round, lbm.Send{From: lbm.NodeID(u), To: lbm.NodeID(v),
						Src: key(rng.Intn(slots)), Dst: key(dst), Op: op})
				}
			}
			if conflicted(round) {
				withConflicts++
			}
			cc.Append(round)
		}
		check(fmt.Sprintf("trial %d", trial), n, cc, func(u, slot int) ring.Value { return ring.Value(rng.Intn(1009)) }, slots)
	}
	if withConflicts == 0 {
		t.Fatal("no random clique round reads a key it also writes")
	}
}
