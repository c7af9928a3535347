package lbm

import (
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

func TestRunRoundDeliversAndCounts(t *testing.T) {
	m := New(4, ring.Counting{})
	m.Put(0, AKey(0, 1), 5)
	m.Put(1, AKey(1, 2), 7)
	r := Round{
		{From: 0, To: 2, Src: AKey(0, 1), Dst: TKey(0, 0, 0), Op: OpSet},
		{From: 1, To: 3, Src: AKey(1, 2), Dst: TKey(0, 0, 0), Op: OpSet},
	}
	if err := m.RunRound(r); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(2, TKey(0, 0, 0)); !ok || v != 5 {
		t.Errorf("node 2 got %v,%v", v, ok)
	}
	if v, ok := m.Get(3, TKey(0, 0, 0)); !ok || v != 7 {
		t.Errorf("node 3 got %v,%v", v, ok)
	}
	st := m.Stats()
	if st.Rounds != 1 || st.Messages != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.SendLoad[0] != 1 || st.RecvLoad[2] != 1 || st.RecvLoad[0] != 0 {
		t.Errorf("loads wrong: %v %v", st.SendLoad, st.RecvLoad)
	}
}

func TestRunRoundRejectsDoubleSend(t *testing.T) {
	m := New(4, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(0, AKey(0, 1), 2)
	r := Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)},
		{From: 0, To: 2, Src: AKey(0, 1), Dst: AKey(0, 1)},
	}
	err := m.RunRound(r)
	if err == nil || !strings.Contains(err.Error(), "sends twice") {
		t.Fatalf("err = %v", err)
	}
	if m.Rounds() != 0 {
		t.Error("failed round must not count")
	}
}

func TestRunRoundRejectsDoubleReceive(t *testing.T) {
	m := New(4, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 0), 2)
	r := Round{
		{From: 0, To: 3, Src: AKey(0, 0), Dst: TKey(0, 0, 0)},
		{From: 1, To: 3, Src: AKey(1, 0), Dst: TKey(1, 0, 0)},
	}
	if err := m.RunRound(r); err == nil || !strings.Contains(err.Error(), "receives twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRoundRejectsMissingKeyAndRange(t *testing.T) {
	m := New(2, ring.Counting{})
	if err := m.RunRound(Round{{From: 0, To: 1, Src: AKey(9, 9)}}); err == nil {
		t.Error("missing source key must error")
	}
	if err := m.RunRound(Round{{From: 0, To: 5, Src: AKey(0, 0)}}); err == nil {
		t.Error("out-of-range node must error")
	}
}

func TestSelfSendIsFreeLocalCopy(t *testing.T) {
	m := New(2, ring.Counting{})
	m.Put(0, AKey(0, 0), 9)
	r := Round{{From: 0, To: 0, Src: AKey(0, 0), Dst: TKey(1, 1, 1), Op: OpSet}}
	if err := m.RunRound(r); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rounds != 0 || st.Messages != 0 || st.LocalCopies != 1 {
		t.Errorf("local copy should be free: %+v", st)
	}
	if v, _ := m.Get(0, TKey(1, 1, 1)); v != 9 {
		t.Error("local copy did not happen")
	}
	// A node may do a local copy and receive a real message in one round.
	m.Put(1, AKey(1, 1), 4)
	r2 := Round{
		{From: 0, To: 0, Src: AKey(0, 0), Dst: TKey(2, 2, 2), Op: OpSet},
		{From: 1, To: 0, Src: AKey(1, 1), Dst: TKey(3, 3, 3), Op: OpSet},
	}
	if err := m.RunRound(r2); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 1 {
		t.Error("mixed round should count once")
	}
}

func TestOpAccAccumulates(t *testing.T) {
	m := New(3, ring.Counting{})
	m.Put(0, AKey(0, 0), 5)
	m.Put(1, AKey(1, 0), 3)
	dst := XKey(0, 0)
	if err := m.RunRound(Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: dst, Op: OpAcc}}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRound(Round{{From: 1, To: 2, Src: AKey(1, 0), Dst: dst, Op: OpAcc}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(2, dst); v != 8 {
		t.Errorf("acc = %v", v)
	}
	// Tropical accumulate: missing reads as +Inf.
	mt := New(2, ring.MinPlus{})
	mt.Put(0, AKey(0, 0), 5)
	if err := mt.RunRound(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: dst, Op: OpAcc}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := mt.Get(1, dst); v != 5 {
		t.Errorf("tropical acc = %v", v)
	}
}

func TestRoundStartSemantics(t *testing.T) {
	// A value forwarded along a chain in one round must use the round-start
	// state: 0 -> 1 and 1 -> 2 in the same round means node 2 sees node 1's
	// OLD value.
	m := New(3, ring.Counting{})
	k := TKey(0, 0, 0)
	m.Put(0, k, 100)
	m.Put(1, k, 200)
	r := Round{
		{From: 0, To: 1, Src: k, Dst: k, Op: OpSet},
		{From: 1, To: 2, Src: k, Dst: k, Op: OpSet},
	}
	if err := m.RunRound(r); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(2, k); v != 200 {
		t.Errorf("node 2 got %v, want round-start value 200", v)
	}
	if v, _ := m.Get(1, k); v != 100 {
		t.Errorf("node 1 got %v, want 100", v)
	}
}

func TestPlanComposition(t *testing.T) {
	p := &Plan{}
	p.Append(nil) // empty rounds dropped
	p.Append(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	q := &Plan{}
	q.Append(Round{{From: 1, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0)}})
	p.Extend(q)
	if len(p.Rounds) != 2 {
		t.Errorf("%d rounds", len(p.Rounds))
	}
}

// TestMachineLocalSteps drives the Machine's local emitter steps: MulAcc
// accumulates at its host, Clear deletes, ClearStaging deletes every staging
// snapshot and nothing else, and none of them costs a round.
func TestMachineLocalSteps(t *testing.T) {
	m := New(8, ring.Counting{})
	stage := func(i int32) Key { return Key{Kind: KStage, I: i} }
	for i := int32(0); i < 8; i++ {
		m.Put(i, AKey(i, 0), ring.Value(i))
		m.Put(i, BKey(0, i), 2)
		m.Put(i, stage(i), 5)
	}
	var e Emitter = m
	for i := int32(0); i < 8; i++ {
		e.MulAcc(i, AKey(i, 0), BKey(0, i), TKey(i, 0, 0))
		e.MulAcc(i, BKey(0, i), BKey(0, i), TKey(i, 0, 0))
	}
	for i := int32(0); i < 8; i++ {
		if v, _ := m.Get(i, TKey(i, 0, 0)); v != ring.Value(2*i+4) {
			t.Errorf("node %d: %v", i, v)
		}
	}
	if m.Rounds() != 0 {
		t.Error("local steps are free")
	}
	e.ClearStaging()
	for i := int32(0); i < 8; i++ {
		e.Clear(i, TKey(i, 0, 0))
		if _, ok := m.Get(i, TKey(i, 0, 0)); ok {
			t.Error("Clear failed")
		}
		if _, ok := m.Get(i, stage(i)); ok {
			t.Error("a staging snapshot survives ClearStaging")
		}
		if _, ok := m.Get(i, AKey(i, 0)); !ok {
			t.Error("ClearStaging deleted an input")
		}
	}
}

// spanDepth is a collector that counts the phase spans open on it.
type spanDepth struct{ open int }

func (c *spanDepth) BeginPhase(string)       { c.open++ }
func (c *spanDepth) EndPhase()               { c.open-- }
func (c *spanDepth) OnRound(int, int)        {}
func (c *spanDepth) OnSend(int32, int32)     {}
func (c *spanDepth) Counter(string, float64) {}

// TestMachineRouteFailureClosesSpans fails a route two spans deep on the
// map engine: the error names the route's context and no span stays open,
// as on the compiled engine (RunProgram).
func TestMachineRouteFailureClosesSpans(t *testing.T) {
	c := &spanDepth{}
	var e Emitter = New(2, ring.Counting{}, WithCollector(c))
	e.BeginPhase("outer")
	e.BeginPhase("inner")
	missing := &Plan{Rounds: []Round{{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}}}}
	err := e.Route(missing, "row", "step", false)
	if err == nil || !strings.HasPrefix(err.Error(), "step: round 0: ") {
		t.Fatalf("route error %v", err)
	}
	if c.open != 0 {
		t.Fatalf("%d phase spans left open", c.open)
	}
}

func TestStatsMaxLoads(t *testing.T) {
	m := New(3, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(0, AKey(0, 1), 2)
	_ = m.RunRound(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	_ = m.RunRound(Round{{From: 0, To: 2, Src: AKey(0, 1), Dst: AKey(0, 1)}})
	st := m.Stats()
	if st.MaxSendLoad() != 2 || st.MaxRecvLoad() != 1 {
		t.Errorf("max loads: %d %d", st.MaxSendLoad(), st.MaxRecvLoad())
	}
}

func TestKeysAndKindStrings(t *testing.T) {
	if AKey(1, 2).String() != "A(1,2)" {
		t.Error(AKey(1, 2).String())
	}
	if PKey(1, 2, 3).String() != "P(1,2)#3" {
		t.Error(PKey(1, 2, 3).String())
	}
	if KindUser.String() != "U16" {
		t.Error(KindUser.String())
	}
	if BKey(1, 2).Kind != KB || XKey(1, 2).Kind != KX || TKey(1, 2, 3).Kind != KT {
		t.Error("key constructors")
	}
}

func TestMustGetPanics(t *testing.T) {
	m := New(1, ring.Counting{})
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing key must panic")
		}
	}()
	m.MustGet(0, AKey(0, 0))
}

func TestLayoutsAndLoading(t *testing.T) {
	n := 6
	ahat := matrix.NewSupport(n, [][2]int{{0, 1}, {0, 2}, {3, 4}})
	bhat := matrix.NewSupport(n, [][2]int{{1, 5}, {2, 0}})
	xhat := matrix.NewSupport(n, [][2]int{{0, 5}, {0, 0}})
	rl := ByRow.Layout(ahat, bhat, xhat)
	if rl.OwnerA(0, 1) != 0 || rl.OwnerA(3, 4) != 3 || rl.OwnerB(2, 0) != 2 || rl.OwnerX(0, 5) != 0 {
		t.Error("row layout owners wrong")
	}
	a, b, x := rl.MaxPerNode()
	if a != 2 || b != 1 || x != 2 {
		t.Errorf("MaxPerNode = %d %d %d", a, b, x)
	}
	bl := Balanced.Layout(ahat, bhat, xhat)
	ba, bb, bx := bl.MaxPerNode()
	if ba != 1 || bb != 1 || bx != 1 {
		t.Errorf("balanced layout MaxPerNode = %d %d %d", ba, bb, bx)
	}
	// A balanced owner is the row-major position mod n, per matrix.
	if bl.OwnerA(0, 1) != 0 || bl.OwnerA(0, 2) != 1 || bl.OwnerA(3, 4) != 2 || bl.OwnerB(2, 0) != 1 || bl.OwnerX(0, 5) != 1 {
		t.Error("balanced layout owners wrong")
	}
	for _, ij := range [][2]int32{{0, 0}, {0, 3}, {5, 1}, {-1, 1}, {6, 0}} {
		if k, ok := bl.A.pos(ij[0], ij[1]); ok {
			t.Errorf("A%v outside the support has position %d", ij, k)
		}
	}

	am := matrix.Random(ahat, ring.Counting{}, 1)
	bm := matrix.Random(bhat, ring.Counting{}, 2)
	m := New(n, ring.Counting{})
	LoadInputs(m, rl, am, bm)
	if v, ok := m.Get(0, AKey(0, 1)); !ok || v != am.Get(0, 1) {
		t.Error("LoadInputs A failed")
	}
	if v, ok := m.Get(2, BKey(2, 0)); !ok || v != bm.Get(2, 0) {
		t.Error("LoadInputs B failed")
	}

	// CollectX errors on missing outputs, succeeds once present.
	if _, err := CollectX(m, rl, xhat); err == nil {
		t.Error("CollectX must fail before outputs delivered")
	}
	ZeroOutputs(m, rl, xhat)
	got, err := CollectX(m, rl, xhat)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 { // zeros are not stored
		t.Error("zeroed outputs should collect as zero matrix")
	}
	m.Put(rl.OwnerX(0, 5), XKey(0, 5), 42)
	got, err = CollectX(m, rl, xhat)
	if err != nil || got.Get(0, 5) != 42 {
		t.Errorf("CollectX = %v, %v", got, err)
	}
}

// TestOwnedCountsOwner checks Placement.Owned's closed form against
// Owner's rule applied cell by cell, and that a position owned is one a
// node finds its cell at: under both placements, over supports with empty
// rows, rows longer than the machine and more cells than nodes.
func TestOwnedCountsOwner(t *testing.T) {
	n := 5
	sup := matrix.NewSupport(n, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {2, 1}, {2, 3}, {4, 0}, {4, 4}})
	for _, p := range []Placement{ByRow, Balanced} {
		got, want := make([]int32, n), make([]int32, n)
		p.Owned(n, sup, got)
		l := p.Layout(sup, sup, sup)
		l.A.each(func(o NodeID, i, k int32) {
			want[o]++
			if q, ok := l.A.owned(o, i, sup.Col[k]); !ok || q != k {
				t.Errorf("placement %d: cell (%d,%d) at position %d found at %d, %v by its owner %d", p, i, sup.Col[k], k, q, ok, o)
			}
			if _, ok := l.A.owned((o+1)%NodeID(n), i, sup.Col[k]); ok {
				t.Errorf("placement %d: cell (%d,%d) owned by a second node", p, i, sup.Col[k])
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("placement %d: Owned = %v, Owner counts %v", p, got, want)
		}
	}
}

func TestLayoutMissingOwnerPanics(t *testing.T) {
	l := ByRow.Layout(matrix.NewSupport(2, nil), matrix.NewSupport(2, nil), matrix.NewSupport(2, nil))
	defer func() {
		if recover() == nil {
			t.Error("missing owner must panic")
		}
	}()
	l.OwnerA(0, 0)
}

func TestPeakStoreTracking(t *testing.T) {
	m := New(2, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(0, AKey(0, 1), 1)
	m.Put(1, AKey(1, 0), 1)
	if st := m.Stats(); st.PeakStore != 2 {
		t.Errorf("PeakStore = %d", st.PeakStore)
	}
}

func TestStoreLimitEnforced(t *testing.T) {
	m := New(3, ring.Counting{}, WithStoreLimit(2))
	m.Put(0, AKey(0, 0), 1)
	m.Put(0, AKey(0, 1), 2)
	m.Put(2, AKey(2, 2), 9) // node 2 holds 1 value
	// Two deliveries to node 2: second pushes it to 3 > limit 2.
	if err := m.RunRound(Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: TKey(0, 0, 0)}}); err != nil {
		t.Fatal(err)
	}
	err := m.RunRound(Round{{From: 0, To: 2, Src: AKey(0, 1), Dst: TKey(0, 0, 1)}})
	if err == nil || !strings.Contains(err.Error(), "store limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreLimitPreDelivery(t *testing.T) {
	// The limit check runs before any delivery: a round that would push a
	// node over its limit must leave every store and all stats untouched,
	// including deliveries to other, non-offending nodes in the same round.
	m := New(4, ring.Counting{}, WithStoreLimit(2))
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 0), 2)
	m.Put(2, AKey(2, 0), 3)
	m.Put(2, AKey(2, 1), 4) // node 2 is at the limit
	before := m.Stats()
	r := Round{
		{From: 0, To: 3, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}, // fine on its own
		{From: 1, To: 2, Src: AKey(1, 0), Dst: TKey(0, 0, 1), Op: OpSet}, // pushes node 2 over
	}
	err := m.RunRound(r)
	if err == nil || !strings.Contains(err.Error(), "store limit") {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(before, m.Stats()) {
		t.Errorf("failed round changed stats:\n before %+v\n after  %+v", before, m.Stats())
	}
	if _, ok := m.Get(3, TKey(0, 0, 0)); ok {
		t.Error("failed round delivered to the non-offending node")
	}
	if _, ok := m.Get(2, TKey(0, 0, 1)); ok {
		t.Error("failed round delivered to the offending node")
	}
	// Overwrites of keys a node already holds do not create new values and
	// must pass the limit check.
	ok := Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: AKey(2, 0), Op: OpSet}}
	if err := m.RunRound(ok); err != nil {
		t.Fatalf("overwrite at the limit must be legal: %v", err)
	}
	if v, _ := m.Get(2, AKey(2, 0)); v != 1 {
		t.Errorf("overwrite lost: %v", v)
	}
}
