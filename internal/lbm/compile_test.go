package lbm

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/ring"
)

// randomPlan builds a valid n-node plan of the given number of rounds:
// every round pairs a random permutation of senders with a random
// permutation of receivers (so the one-send/one-receive model constraint
// holds by construction), sources are drawn from keys known present at the
// node, and ops cycle through OpSet/OpAcc (and OpSub when sub is set).
// It returns the plan together with the initial (node, key, value) loads.
type load struct {
	node NodeID
	key  Key
	val  ring.Value
}

func randomPlan(rng *rand.Rand, n, rounds int, sub bool) (*Plan, []load) {
	present := make([][]Key, n)
	var loads []load
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			k := AKey(int32(i), int32(j))
			present[i] = append(present[i], k)
			loads = append(loads, load{NodeID(i), k, ring.Value(1 + rng.Intn(5))})
		}
	}
	p := &Plan{}
	for t := 0; t < rounds; t++ {
		senders := rng.Perm(n)
		receivers := rng.Perm(n)
		var r Round
		type delivery struct {
			node int
			key  Key
		}
		var delivered []delivery
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				continue // this node sits the round out
			}
			f, to := senders[i], receivers[i]
			src := present[f][rng.Intn(len(present[f]))]
			dst := TKey(int32(t%4), int32(to), int32(rng.Intn(3)))
			op := OpSet
			switch rng.Intn(3) {
			case 1:
				op = OpAcc
			case 2:
				if sub {
					op = OpSub
				} else {
					op = OpAcc
				}
			}
			r = append(r, Send{From: NodeID(f), To: NodeID(to), Src: src, Dst: dst, Op: op})
			delivered = append(delivered, delivery{to, dst})
		}
		p.Append(r)
		// Keys delivered this round become eligible sources from the next.
		for _, d := range delivered {
			seen := false
			for _, k := range present[d.node] {
				if k == d.key {
					seen = true
					break
				}
			}
			if !seen {
				present[d.node] = append(present[d.node], d.key)
			}
		}
	}
	p.Annotate("random", map[string]float64{"rounds": float64(rounds)})
	return p, loads
}

// runMap executes the plan on the map-backed reference machine.
func runMap(t *testing.T, p *Plan, loads []load, r ring.Semiring, opts ...Option) (*Machine, error) {
	t.Helper()
	m := New(6, r, opts...)
	for _, l := range loads {
		m.Put(l.node, l.key, l.val)
	}
	return m, m.Run(p)
}

// runCompiled lowers the plan into a caller-owned slot space (so the
// initial loads have known slots) and executes it on an Exec.
func runCompiled(t *testing.T, p *Plan, loads []load, r ring.Semiring, opts ...Option) (*SlotSpace, *Exec, error) {
	t.Helper()
	sp := NewSlotSpace(6)
	for _, l := range loads {
		sp.Slot(l.node, l.key)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	x := NewExec(sp.Sizes(), r, opts...)
	for _, l := range loads {
		x.PutSlot(sp.Ref(l.node, l.key), l.val)
	}
	return sp, x, x.Run(cp)
}

// compareStores checks that the machine and the executor hold exactly the
// same (node, key) → value mapping over the whole slot space.
func compareStores(t *testing.T, sp *SlotSpace, m *Machine, x *Exec) {
	t.Helper()
	sp.EachKey(func(node NodeID, k Key, slot int32) {
		mv, mok := m.Get(node, k)
		xv, xok := x.GetSlot(SlotRef{Node: node, Slot: slot})
		if mok != xok || mv != xv {
			t.Errorf("node %d key %v: map (%v,%v) vs compiled (%v,%v)", node, k, mv, mok, xv, xok)
		}
	})
}

// TestCompiledParityRandom is the engine-parity property test at the lbm
// layer: on randomized plans the compiled executor must reproduce the map
// machine's stores and Stats exactly.
func TestCompiledParityRandom(t *testing.T) {
	rings := []struct {
		r   ring.Semiring
		sub bool
	}{
		{ring.Counting{}, false},
		{ring.MinPlus{}, false},
		{ring.Real{}, true},
		{ring.NewGFp(1009), true},
	}
	for _, rc := range rings {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, loads := randomPlan(rng, 6, 10, rc.sub)
			m, merr := runMap(t, p, loads, rc.r)
			if merr != nil {
				t.Fatalf("%s seed %d: map: %v", rc.r.Name(), seed, merr)
			}
			sp, x, xerr := runCompiled(t, p, loads, rc.r)
			if xerr != nil {
				t.Fatalf("%s seed %d: compiled: %v", rc.r.Name(), seed, xerr)
			}
			compareStores(t, sp, m, x)
			if !reflect.DeepEqual(m.Stats(), x.Stats()) {
				t.Errorf("%s seed %d: stats differ:\n map      %+v\n compiled %+v",
					rc.r.Name(), seed, m.Stats(), x.Stats())
			}
		}
	}
}

// TestExecCycleAllocFree pins the pooled reuse cycle of the nil-transport
// walk: load, Run and Reset of one executor over a multi-round plan with
// real messages allocate nothing once a warm-up pass has sized RoundBytes
// and the round scratch, at one lane and at several.
func TestExecCycleAllocFree(t *testing.T) {
	r := ring.Counting{}
	p, loads := randomPlan(rand.New(rand.NewSource(1)), 6, 10, false)
	sp := NewSlotSpace(6)
	for _, l := range loads {
		sp.Slot(l.node, l.key)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, lanes := range []int{1, 4} {
		x := NewExecBatch(sp.Sizes(), lanes, r)
		cycle := func() {
			for _, l := range loads {
				for lane := 0; lane < lanes; lane++ {
					x.PutLane(sp.Ref(l.node, l.key), lane, l.val)
				}
			}
			if err := x.Run(cp); err != nil {
				t.Fatalf("lanes %d: %v", lanes, err)
			}
			if x.Rounds() == 0 {
				t.Fatalf("lanes %d: the plan moved no real message", lanes)
			}
			x.Reset()
		}
		cycle()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("lanes %d: load+Run+Reset allocates %v times per cycle, want 0", lanes, allocs)
		}
	}
}

// TestCompiledStoreLimitParity checks that the compiled executor enforces
// the per-node store limit with the same pre-delivery contract as the map
// machine: the offending round delivers nothing and counts nothing.
func TestCompiledStoreLimitParity(t *testing.T) {
	p := &Plan{}
	// Round 1: one delivery to node 2 (2 values, at the limit).
	p.Append(Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}})
	// Round 2: a second new key pushes node 2 to 3 > limit 2.
	p.Append(Round{{From: 0, To: 2, Src: AKey(0, 1), Dst: TKey(0, 0, 1), Op: OpSet}})
	loads := []load{
		{0, AKey(0, 0), 1},
		{0, AKey(0, 1), 2},
		{2, AKey(2, 2), 9},
	}
	m, merr := runMap(t, p, loads, ring.Counting{}, WithStoreLimit(2))
	sp, x, xerr := runCompiled(t, p, loads, ring.Counting{}, WithStoreLimit(2))
	if merr == nil || xerr == nil {
		t.Fatalf("both engines must hit the limit: map=%v compiled=%v", merr, xerr)
	}
	if !strings.Contains(xerr.Error(), "store limit") {
		t.Errorf("compiled error = %v", xerr)
	}
	// Pre-delivery contract: the failed round left stores and stats alone,
	// so the two engines agree on everything up to the failure.
	compareStores(t, sp, m, x)
	if !reflect.DeepEqual(m.Stats(), x.Stats()) {
		t.Errorf("stats after failed round differ:\n map      %+v\n compiled %+v", m.Stats(), x.Stats())
	}
	if x.Stats().Rounds != 1 {
		t.Errorf("failed round must not count: %+v", x.Stats())
	}
	if _, ok := x.GetSlot(sp.Ref(2, TKey(0, 0, 1))); ok {
		t.Error("failed round must deliver nothing")
	}
}

// TestCompiledAccumulateOverwrite pins the op semantics on slots: OpAcc on
// an absent slot reads the ring zero, OpSet overwrites, OpSub needs a field.
func TestCompiledAccumulateOverwrite(t *testing.T) {
	p := &Plan{}
	dst := XKey(0, 0)
	p.Append(Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: dst, Op: OpAcc}})
	p.Append(Round{{From: 1, To: 2, Src: AKey(1, 0), Dst: dst, Op: OpAcc}})
	p.Append(Round{{From: 0, To: 2, Src: AKey(0, 1), Dst: dst, Op: OpSet}})
	p.Append(Round{{From: 1, To: 2, Src: AKey(1, 1), Dst: dst, Op: OpSub}})
	loads := []load{
		{0, AKey(0, 0), 5}, {0, AKey(0, 1), 100},
		{1, AKey(1, 0), 3}, {1, AKey(1, 1), 40},
	}
	sp, x, err := runCompiled(t, p, loads, ring.Real{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := x.GetSlot(sp.Ref(2, dst)); v != 60 {
		t.Errorf("value = %v, want 60", v)
	}
	// OpSub without a field is rejected before any round runs.
	spc := NewSlotSpace(6)
	cp, err := CompileInto(spc, p)
	if err != nil {
		t.Fatal(err)
	}
	xc := NewExec(spc.Sizes(), ring.Counting{})
	if err := xc.Run(cp); err == nil || !strings.Contains(err.Error(), "field") {
		t.Errorf("OpSub on a semiring must fail: %v", err)
	}
}

// TestCompiledResetReuse covers the pooled-arena contract: Reset returns
// the executor to its freshly constructed state, so a second identical run
// reproduces identical stores and Stats.
func TestCompiledResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, loads := randomPlan(rng, 6, 8, false)
	sp := NewSlotSpace(6)
	for _, l := range loads {
		sp.Slot(l.node, l.key)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(sp.Sizes(), ring.Counting{})
	var firstStats Stats
	first := map[SlotRef]ring.Value{}
	for run := 0; run < 3; run++ {
		for _, l := range loads {
			x.PutSlot(sp.Ref(l.node, l.key), l.val)
		}
		if err := x.Run(cp); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			firstStats = x.Stats()
			sp.EachKey(func(node NodeID, k Key, slot int32) {
				if v, ok := x.GetSlot(SlotRef{Node: node, Slot: slot}); ok {
					first[SlotRef{Node: node, Slot: slot}] = v
				}
			})
		} else {
			if !reflect.DeepEqual(firstStats, x.Stats()) {
				t.Errorf("run %d: stats drifted: %+v vs %+v", run, x.Stats(), firstStats)
			}
			count := 0
			sp.EachKey(func(node NodeID, k Key, slot int32) {
				ref := SlotRef{Node: node, Slot: slot}
				v, ok := x.GetSlot(ref)
				want, wok := first[ref]
				if ok != wok || v != want {
					t.Errorf("run %d: %v = (%v,%v), want (%v,%v)", run, ref, v, ok, want, wok)
				}
				if ok {
					count++
				}
			})
			if count != len(first) {
				t.Errorf("run %d: %d live slots, want %d", run, count, len(first))
			}
		}
		x.Reset()
		if x.Stats().Rounds != 0 || x.Stats().PeakStore != 0 {
			t.Fatalf("Reset left stats behind: %+v", x.Stats())
		}
		empty := true
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			if _, ok := x.GetSlot(SlotRef{Node: node, Slot: slot}); ok {
				empty = false
			}
		})
		if !empty {
			t.Fatal("Reset left slots present")
		}
	}
}

// TestCompiledValidateCatchesCorruption mutates a valid compiled plan field
// by field and checks Validate rejects each corruption — decoded plans
// cross a trust boundary and must never reach the executor unchecked.
func TestCompiledValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CompiledPlan {
		rng := rand.New(rand.NewSource(11))
		p, _ := randomPlan(rng, 6, 5, false)
		cp, err := CompileInto(NewSlotSpace(6), p)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(cp *CompiledPlan)
	}{
		{"node out of range", func(cp *CompiledPlan) { cp.From[0] = int32(cp.N) }},
		{"negative node", func(cp *CompiledPlan) { cp.To[0] = -1 }},
		{"slot out of range", func(cp *CompiledPlan) { cp.SrcSlot[0] = cp.NumSlots[cp.From[0]] }},
		{"negative slot", func(cp *CompiledPlan) { cp.DstSlot[0] = -1 }},
		{"unknown op", func(cp *CompiledPlan) { cp.Ops[0] = OpSub + 1 }},
		{"round offsets not monotone", func(cp *CompiledPlan) { cp.RoundOff[1] = cp.RoundOff[2] + 1 }},
		{"arrays inconsistent", func(cp *CompiledPlan) { cp.To = cp.To[:len(cp.To)-1] }},
		{"span out of range", func(cp *CompiledPlan) { cp.Spans[0].End = cp.NumRounds() + 1 }},
		{"machine size", func(cp *CompiledPlan) { cp.N = 0 }},
	}
	for _, tc := range cases {
		cp := fresh()
		tc.mutate(cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: corruption not caught", tc.name)
		}
	}
}
