package lbm

import (
	"bytes"
	"testing"

	"lbmm/internal/ring"
)

// TestFreeRoundSpanRegression pins what the trace does with a round the
// model does not charge: a local-only round is not counted, so a span opened
// around it keeps Start == End and the next real round is counted round 0,
// inside the span opened for it; a zero-round span after the last counted
// round is kept at r == NumRounds. A machine without tracing opens spans
// and counts for free and has no profile.
func TestFreeRoundSpanRegression(t *testing.T) {
	m := New(4, ring.Counting{}, WithTrace())
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 1), 2)

	m.BeginPhase("free")
	// A local-only round: free, not counted.
	if err := m.RunRound(Round{{From: 0, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	m.EndPhase()
	m.BeginPhase("real")
	if err := m.RunRound(Round{{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(1, 1, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	m.EndPhase()
	m.BeginPhase("trailing")
	m.EndPhase()

	prof := m.Profile()
	if got := prof.PerRoundMessages(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PerRoundMessages = %v, want one counted round of one message", got)
	}
	want := []struct {
		label      string
		start, end int
	}{{"free", 0, 0}, {"real", 0, 1}, {"trailing", 1, 1}}
	spans := prof.Root().Children
	if len(spans) != len(want) {
		t.Fatalf("%d top-level spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if s := spans[i]; s.Label != w.label || s.Start != w.start || s.End != w.end {
			t.Errorf("span %d = %q [%d,%d), want %q [%d,%d)", i, s.Label, s.Start, s.End, w.label, w.start, w.end)
		}
	}

	m2 := New(2, ring.Counting{})
	m2.BeginPhase("noop")
	m2.Counter("k", 1)
	m2.EndPhase()
	if m2.Profile() != nil {
		t.Error("profile should be nil when tracing is disabled")
	}
}

// TestPlanSpanReplay routes a plan carrying a phase through both sinks of
// an Emitter — the map engine (Machine.Route) and a Lowering whose program
// Exec.RunProgram runs — and requires byte-identical trace exports: for a
// plan of two rounds, for a plan of none, whose span must still report
// Start == End, and for a failing route inside an open span, which both
// sinks must close. Every case runs one counted round first, so the plan's
// span does not start at round 0, and opens a top-level span last, which
// lands at the top only if the run left no span open.
func TestPlanSpanReplay(t *testing.T) {
	const n = 4
	loads := []struct {
		node NodeID
		k    Key
	}{{0, AKey(0, 0)}, {1, AKey(1, 1)}}
	lead := &Plan{Rounds: []Round{{{From: 0, To: 3, Src: AKey(0, 0), Dst: TKey(0, 0, 0)}}}}
	two := &Plan{}
	two.Append(Round{{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(1, 1, 0)}})
	two.Append(Round{{From: 2, To: 0, Src: TKey(1, 1, 0), Dst: TKey(1, 1, 1)}})
	two.Annotate("planned", map[string]float64{"k": 3, "depth": 2})
	none := &Plan{}
	none.Annotate("empty", map[string]float64{"k": 0})
	missing := &Plan{Rounds: []Round{{{From: 3, To: 1, Src: AKey(3, 3), Dst: AKey(3, 3)}}}}
	missing.Annotate("fails", map[string]float64{"k": 1})
	for _, tc := range []struct {
		plan       *Plan
		label      string
		start, end int
		fail       bool
	}{
		{two, "planned", 1, 3, false},
		{none, "empty", 1, 1, false},
		{missing, "fails", 1, 1, true},
	} {
		emit := func(e Emitter) error {
			e.BeginPhase("outer")
			if err := e.Route(lead, "lead", "lead", false); err != nil {
				return err
			}
			if err := e.Route(tc.plan, "row", "step", false); err != nil {
				return err
			}
			e.EndPhase()
			return nil
		}
		m := New(n, ring.Counting{}, WithTrace())
		lw := NewLowering(n, nil, 0, 0)
		for _, l := range loads {
			m.Put(l.node, l.k, 1)
			lw.sp.Ref(l.node, l.k)
		}
		merr := emit(m)
		if err := emit(lw); err != nil {
			t.Fatal(err)
		}
		p, err := lw.Program()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		sizes := make([]int32, n)
		lw.sp.EachKey(func(node NodeID, _ Key, slot int32) { sizes[node] = max(sizes[node], slot+1) })
		x := NewExec(sizes, ring.Counting{}, WithTrace())
		for _, l := range loads {
			x.PutSlot(lw.sp.Ref(l.node, l.k), 1)
		}
		_, xerr := x.RunProgram(p)
		if (merr != nil) != tc.fail || (xerr != nil) != tc.fail {
			t.Fatalf("%s: map run error %v, compiled %v; want failure %v", tc.label, merr, xerr, tc.fail)
		}
		m.BeginPhase("after")
		m.EndPhase()
		x.BeginPhase("after")
		x.EndPhase()

		var mj, xj bytes.Buffer
		if err := m.Profile().Export().WriteJSON(&mj); err != nil {
			t.Fatal(err)
		}
		if err := x.Profile().Export().WriteJSON(&xj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mj.Bytes(), xj.Bytes()) {
			t.Fatalf("%s: the sinks export different traces\n--- map ---\n%s\n--- compiled ---\n%s", tc.label, mj.String(), xj.String())
		}
		root := m.Profile().Root()
		if len(root.Children) != 2 || root.Children[1].Label != "after" {
			t.Fatalf("%s: top-level spans %d, want outer and after: a span stayed open", tc.label, len(root.Children))
		}
		outer := root.Children[0]
		if len(outer.Children) != 1 {
			t.Fatalf("%s: outer holds %d spans, want the plan's", tc.label, len(outer.Children))
		}
		s := outer.Children[0]
		if s.Label != tc.label || s.Start != tc.start || s.End != tc.end || s.Counters["k"] != tc.plan.metrics["k"] {
			t.Errorf("span %q [%d,%d) counters %v, want %s [%d,%d)", s.Label, s.Start, s.End, s.Counters, tc.label, tc.start, tc.end)
		}
	}
}

// TestPhaseRoundAttribution checks that rounds run inside Begin/EndPhase are
// attributed to the open span and that per-node loads agree with Stats.
func TestPhaseRoundAttribution(t *testing.T) {
	m := New(4, ring.Counting{}, WithTrace())
	m.Put(0, AKey(0, 0), 1)
	m.BeginPhase("work")
	if err := m.RunRound(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	m.EndPhase()

	prof := m.Profile()
	s := prof.Root().Children[0]
	if s.Label != "work" || s.Rounds() != 1 {
		t.Errorf("span = %q rounds=%d", s.Label, s.Rounds())
	}
	st := m.Stats()
	for i, v := range prof.SendLoad() {
		if st.SendLoad[i] != v {
			t.Errorf("send load mismatch at %d: stats=%d profile=%d", i, st.SendLoad[i], v)
		}
	}
	for i, v := range prof.RecvLoad() {
		if st.RecvLoad[i] != v {
			t.Errorf("recv load mismatch at %d: stats=%d profile=%d", i, st.RecvLoad[i], v)
		}
	}
}

// benchPlan builds a shift-by-one plan with r rounds on n nodes.
func benchPlan(m *Machine, n, rounds int) *Plan {
	for i := 0; i < n; i++ {
		m.Put(NodeID(i), AKey(int32(i), 0), ring.Value(i))
	}
	p := &Plan{}
	for t := 0; t < rounds; t++ {
		var r Round
		for i := 0; i < n; i++ {
			r = append(r, Send{
				From: NodeID(i), To: NodeID((i + 1) % n),
				Src: AKey(int32(i), 0), Dst: TKey(int32(i), int32(t), 0), Op: OpSet,
			})
		}
		p.Append(r)
	}
	return p
}

// The pair below backs the zero-overhead acceptance check: run
//
//	go test -bench 'Collector' -run - ./internal/lbm/
//
// and compare; the nil-collector path must not measurably regress against
// the pre-observability executor.
func BenchmarkRunNoCollector(b *testing.B) {
	m := New(64, ring.Counting{})
	p := benchPlan(m, 64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithCollector(b *testing.B) {
	m := New(64, ring.Counting{}, WithTrace())
	p := benchPlan(m, 64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
