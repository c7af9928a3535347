package lbm

import (
	"math/rand"
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
	if p.NumRounds() != 2 {
		t.Errorf("NumRounds = %d", p.NumRounds())
	}
}

func TestMergeParallel(t *testing.T) {
	// Two plans on disjoint computers merge round-wise.
	p1 := &Plan{}
	p1.Append(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	p1.Append(Round{{From: 1, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0)}})
	p2 := &Plan{}
	p2.Append(Round{{From: 2, To: 3, Src: AKey(2, 0), Dst: AKey(2, 0)}})
	merged := MergeParallel(p1, p2)
	if merged.NumRounds() != 2 {
		t.Fatalf("merged rounds = %d, want 2", merged.NumRounds())
	}
	if len(merged.Rounds[0]) != 2 || len(merged.Rounds[1]) != 1 {
		t.Errorf("merge shape wrong: %d, %d", len(merged.Rounds[0]), len(merged.Rounds[1]))
	}
	m := New(4, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(2, AKey(2, 0), 2)
	if err := m.Run(merged); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 2 {
		t.Errorf("rounds = %d", m.Rounds())
	}
	// Conflicting merge is caught at run time.
	p3 := &Plan{}
	p3.Append(Round{{From: 0, To: 3, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	bad := MergeParallel(p1, p3)
	m2 := New(4, ring.Counting{})
	m2.Put(0, AKey(0, 0), 1)
	if err := m2.Run(bad); err == nil {
		t.Error("conflicting merged plan must fail validation")
	}
}

func TestLocalAllAndViews(t *testing.T) {
	m := New(8, ring.Counting{})
	for i := int32(0); i < 8; i++ {
		m.Put(i, AKey(i, 0), ring.Value(i))
	}
	m.LocalAll(func(node NodeID, v *LocalView) {
		if v.Node() != node {
			t.Error("view node mismatch")
		}
		val, _ := v.Get(AKey(node, 0))
		v.Put(TKey(node, 0, 0), v.Ring().Mul(val, 2))
		v.Acc(TKey(node, 0, 0), 1)
	})
	for i := int32(0); i < 8; i++ {
		if v, _ := m.Get(i, TKey(i, 0, 0)); v != ring.Value(2*i+1) {
			t.Errorf("node %d: %v", i, v)
		}
	}
	if m.Rounds() != 0 {
		t.Error("local steps are free")
	}
	// Each + Del.
	m.LocalAll(func(node NodeID, v *LocalView) {
		var keys []Key
		v.Each(func(k Key, _ ring.Value) {
			if k.Kind == KT {
				keys = append(keys, k)
			}
		})
		for _, k := range keys {
			v.Del(k)
		}
	})
	for i := int32(0); i < 8; i++ {
		if _, ok := m.Get(i, TKey(i, 0, 0)); ok {
			t.Error("Del failed")
		}
	}
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	// A random big round executed by both engines must give identical
	// stores and stats.
	rng := rand.New(rand.NewSource(123))
	n := 200
	build := func(workers int) (*Machine, *Plan) {
		var opts []Option
		if workers > 1 {
			opts = append(opts, WithWorkers(workers))
		}
		m := New(n, ring.Counting{}, opts...)
		m.ParBatch = 1 // force the parallel path even for small rounds
		for i := 0; i < n; i++ {
			m.Put(NodeID(i), AKey(int32(i), 0), ring.Value(i+1))
		}
		p := &Plan{}
		for t := 0; t < 30; t++ {
			perm := rng.Perm(n)
			r := make(Round, 0, n)
			for i := 0; i < n; i++ {
				r = append(r, Send{
					From: NodeID(i), To: NodeID(perm[i]),
					Src: AKey(int32(i), 0), Dst: PKey(int32(t), int32(i), 0), Op: OpAcc,
				})
			}
			p.Append(r)
		}
		return m, p
	}
	rng = rand.New(rand.NewSource(123))
	m1, p1 := build(1)
	rng = rand.New(rand.NewSource(123))
	m2, p2 := build(8)
	if err := m1.Run(p1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(p2); err != nil {
		t.Fatal(err)
	}
	s1, s2 := m1.Stats(), m2.Stats()
	if s1.Rounds != s2.Rounds || s1.Messages != s2.Messages {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for i := 0; i < n; i++ {
		for k, v := range m1.stores[i] {
			if v2, ok := m2.stores[i][k]; !ok || v2 != v {
				t.Fatalf("store mismatch at node %d key %v: %v vs %v", i, k, v, v2)
			}
		}
		if len(m1.stores[i]) != len(m2.stores[i]) {
			t.Fatalf("store size mismatch at node %d", i)
		}
	}
}

func TestWithAutoWorkers(t *testing.T) {
	m := New(2, ring.Counting{}, WithAutoWorkers())
	if m.Workers < 1 {
		t.Error("auto workers must be >= 1")
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
	rl := RowLayout(ahat, bhat, xhat)
	if rl.OwnerA(0, 1) != 0 || rl.OwnerA(3, 4) != 3 || rl.OwnerB(2, 0) != 2 || rl.OwnerX(0, 5) != 0 {
		t.Error("RowLayout owners wrong")
	}
	a, b, x := rl.MaxPerNode()
	if a != 2 || b != 1 || x != 2 {
		t.Errorf("MaxPerNode = %d %d %d", a, b, x)
	}
	bl := BalancedLayout(ahat, bhat, xhat)
	ba, bb, bx := bl.MaxPerNode()
	if ba != 1 || bb != 1 || bx != 1 {
		t.Errorf("BalancedLayout MaxPerNode = %d %d %d", ba, bb, bx)
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

func TestLayoutMissingOwnerPanics(t *testing.T) {
	l := RowLayout(matrix.NewSupport(2, nil), matrix.NewSupport(2, nil), matrix.NewSupport(2, nil))
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

func TestReset(t *testing.T) {
	m := New(3, ring.Counting{}, WithTrace())
	m.Put(0, AKey(0, 0), 5)
	_ = m.RunRound(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	m.Reset()
	if m.Rounds() != 0 || m.Stats().Messages != 0 || m.Stats().PeakStore != 0 {
		t.Errorf("stats survive reset: %+v", m.Stats())
	}
	if _, ok := m.Get(0, AKey(0, 0)); ok {
		t.Error("store survives reset")
	}
	st := m.Stats()
	if st.MaxSendLoad() != 0 {
		t.Error("loads survive reset")
	}
	if prof := m.Profile(); prof == nil || prof.NumRounds() != 0 {
		t.Error("trace survives reset")
	}
	// The machine is usable again.
	m.Put(0, AKey(0, 0), 7)
	if err := m.RunRound(Round{{From: 0, To: 2, Src: AKey(0, 0), Dst: AKey(0, 0)}}); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 1 {
		t.Error("machine unusable after reset")
	}
}

func TestMergeParallelCarriesSpans(t *testing.T) {
	p1 := &Plan{}
	p1.Append(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)}})
	p1.Append(Round{{From: 1, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0)}})
	p1.Annotate("shuffle", map[string]float64{"kappa": 2})
	p2 := &Plan{}
	p2.Append(Round{{From: 2, To: 3, Src: AKey(2, 0), Dst: AKey(2, 0)}})
	p2.Annotate("copy", nil)
	merged := MergeParallel(p1, p2)
	if len(merged.Spans) != 2 {
		t.Fatalf("spans = %+v", merged.Spans)
	}
	if s := merged.Spans[0]; s.Label != "p0/shuffle" || s.Start != 0 || s.End != 2 || s.Metrics["kappa"] != 2 {
		t.Errorf("span 0 = %+v", s)
	}
	if s := merged.Spans[1]; s.Label != "p1/copy" || s.Start != 0 || s.End != 1 {
		t.Errorf("span 1 = %+v", s)
	}
	// A span over a round that the union drops (both inputs empty there)
	// collapses to zero rounds instead of swallowing a neighbour's round.
	p3 := &Plan{Rounds: []Round{}, Spans: []PhaseSpan{{Label: "empty", Start: 0, End: 0}}}
	m2 := MergeParallel(p1, p3)
	if s := m2.Spans[1]; s.Label != "p1/empty" || s.Start != s.End {
		t.Errorf("empty-phase span = %+v", s)
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
