package vnet

import (
	"math/rand"
	"strings"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/ring"
	"lbmm/internal/routing"
)

func TestRolesAssignment(t *testing.T) {
	nt := Roles(5)
	if nt.V() != 15 || nt.MaxLoad != 3 {
		t.Fatalf("V=%d MaxLoad=%d", nt.V(), nt.MaxLoad)
	}
	if nt.Host[2] != 2 || nt.Host[5+2] != 2 || nt.Host[10+2] != 2 {
		t.Error("role hosts wrong")
	}
}

func TestCompileDeliversWithBoundedOverhead(t *testing.T) {
	// A virtual permutation round on 3n role nodes compiles into at most
	// ~2*MaxLoad real rounds and delivers correctly.
	rng := rand.New(rand.NewSource(2))
	n := 30
	nt := Roles(n)
	m := lbm.New(n, ring.Counting{})
	perm := rng.Perm(nt.V())
	var vr lbm.Round
	for v := 0; v < nt.V(); v++ {
		src := lbm.TKey(int32(v), 0, 0)
		m.Put(nt.Host[v], src, ring.Value(v+1))
		vr = append(vr, lbm.Send{
			From: int32(v), To: int32(perm[v]),
			Src: src, Dst: lbm.TKey(int32(v), 1, 0), Op: lbm.OpSet,
		})
	}
	p := &lbm.Plan{}
	p.Append(vr)
	real, err := nt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(real); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nt.V(); v++ {
		got, ok := m.Get(nt.Host[perm[v]], lbm.TKey(int32(v), 1, 0))
		if !ok || got != ring.Value(v+1) {
			t.Fatalf("vnode %d message lost (got %v, %v)", v, got, ok)
		}
	}
	// One virtual round with vnode degree 1 → host degree ≤ 3 → Euler uses
	// < 2*3... allow up to 2^ceil(log2 3) = 4 rounds.
	if m.Rounds() > 4 {
		t.Errorf("compiled overhead too high: %d rounds", m.Rounds())
	}
}

func TestCompileRejectsVirtualViolations(t *testing.T) {
	nt := Roles(4)
	p := &lbm.Plan{}
	p.Append(lbm.Round{
		{From: 0, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)},
		{From: 0, To: 2, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 2)},
	})
	if _, err := nt.Compile(p); err == nil || !strings.Contains(err.Error(), "sends twice") {
		t.Errorf("err = %v", err)
	}
	p2 := &lbm.Plan{}
	p2.Append(lbm.Round{
		{From: 0, To: 2, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1)},
		{From: 1, To: 2, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 2)},
	})
	if _, err := nt.Compile(p2); err == nil || !strings.Contains(err.Error(), "receives twice") {
		t.Errorf("err = %v", err)
	}
	p3 := &lbm.Plan{}
	p3.Append(lbm.Round{{From: -1, To: 0, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 0)}})
	if _, err := nt.Compile(p3); err == nil {
		t.Error("out of range accepted")
	}
}

func TestCompileStagesConflictedSources(t *testing.T) {
	// vnodes 0 and 4 (J-role of computer 0 for n=4) share host 0. In one
	// virtual round, vnode 0 sends key K while vnode 4 receives a NEW value
	// into the same key K. The receiver of vnode 0's message must see the
	// round-start value of K, not the new one, whatever order the compiled
	// machine rounds run in.
	n := 4
	nt := Roles(n)
	k := lbm.TKey(9, 9, 9)
	m := lbm.New(n, ring.Counting{})
	m.Put(0, k, 111)                 // round-start value at host 0
	m.Put(2, lbm.TKey(2, 2, 2), 222) // the value that overwrites k
	p := &lbm.Plan{}
	p.Append(lbm.Round{
		{From: 0, To: 1, Src: k, Dst: lbm.TKey(1, 1, 1), Op: lbm.OpSet},        // host 0 reads k
		{From: 2, To: int32(n), Src: lbm.TKey(2, 2, 2), Dst: k, Op: lbm.OpSet}, // host 0 writes k
	})
	real, err := nt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(real); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(1, lbm.TKey(1, 1, 1)); v != 111 {
		t.Errorf("reader saw %v, want round-start value 111", v)
	}
	if v, _ := m.Get(0, k); v != 222 {
		t.Errorf("k = %v after round, want 222", v)
	}
	// Staging leftovers are swept by the machine's staging sweep.
	staged := func() (held int) {
		for _, r := range real.Rounds {
			for _, s := range r {
				if _, ok := m.Get(s.To, s.Dst); ok && s.Dst.Kind == lbm.KStage {
					held++
				}
			}
		}
		return held
	}
	if staged() == 0 {
		t.Fatal("the compiled plan left no staging key to sweep")
	}
	m.ClearStaging()
	if staged() != 0 {
		t.Error("staging keys survive ClearStaging")
	}
}

func TestNewExplicitHosts(t *testing.T) {
	nt := New([]lbm.NodeID{0, 0, 0, 1})
	if nt.MaxLoad != 3 || nt.V() != 4 {
		t.Errorf("MaxLoad=%d V=%d", nt.MaxLoad, nt.V())
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	nt := Roles(4)
	// Missing source key at execution time.
	p := &lbm.Plan{}
	p.Append(lbm.Round{{From: 0, To: 1, Src: lbm.TKey(9, 9, 9), Dst: lbm.TKey(0, 0, 1), Op: lbm.OpSet}})
	real, err := nt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	m := lbm.New(4, ring.Counting{})
	if err := m.Run(real); err == nil {
		t.Error("missing source should fail at run time")
	}
	// OpSub over a non-field fails at run time too.
	m2 := lbm.New(4, ring.Counting{})
	m2.Put(0, lbm.TKey(1, 1, 1), 3)
	p2 := &lbm.Plan{}
	p2.Append(lbm.Round{{From: 0, To: 1, Src: lbm.TKey(1, 1, 1), Dst: lbm.TKey(0, 0, 1), Op: lbm.OpSub}})
	real2, err := nt.Compile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(real2); err == nil {
		t.Error("OpSub over semiring should fail")
	}
}

// TestScheduleVirtualRoundTrip checks the planners' path into Compile: a
// multiset of virtual messages scheduled by routing.Schedule over virtual
// node ids is a virtual plan Compile accepts, and its lowering delivers.
func TestScheduleVirtualRoundTrip(t *testing.T) {
	msgs := []lbm.Send{
		{From: 0, To: 1, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 1), Op: lbm.OpSet},
		{From: 0, To: 2, Src: lbm.TKey(0, 0, 0), Dst: lbm.TKey(0, 0, 2), Op: lbm.OpSet},
		{From: 3, To: 3, Src: lbm.TKey(3, 0, 0), Dst: lbm.TKey(3, 0, 1), Op: lbm.OpSet},
	}
	p := routing.Schedule(msgs)
	// vnode 0 sends twice → two rounds; local copy shares the first.
	if len(p.Rounds) != 2 {
		t.Fatalf("scheduled into %d rounds", len(p.Rounds))
	}
	total := 0
	for _, r := range p.Rounds {
		total += len(r)
	}
	if total != 3 {
		t.Fatalf("lost messages: %d", total)
	}
	nt := Roles(2) // vnodes 0 and 2 share host 0, 1 and 3 share host 1
	real, err := nt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	m := lbm.New(2, ring.Counting{})
	m.Put(0, lbm.TKey(0, 0, 0), 5)
	m.Put(1, lbm.TKey(3, 0, 0), 7)
	if err := m.Run(real); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		node lbm.NodeID
		key  lbm.Key
		val  ring.Value
	}{{1, lbm.TKey(0, 0, 1), 5}, {0, lbm.TKey(0, 0, 2), 5}, {1, lbm.TKey(3, 0, 1), 7}} {
		if got, ok := m.Get(want.node, want.key); !ok || got != want.val {
			t.Errorf("host %d key %v: got %v,%v want %v", want.node, want.key, got, ok, want.val)
		}
	}
}
