package lbm

import (
	"strings"
	"testing"

	"lbmm/internal/ring"
)

// TestMarkCarryForwardRegression pins the fix for the classic trace bug:
// labels placed before rounds that end up free (local-only or empty) used to
// vanish or mis-anchor; they must merge into the next counted round's
// boundary, and trailing labels must survive at r == NumRounds.
func TestMarkCarryForwardRegression(t *testing.T) {
	m := New(4, ring.Counting{}, WithTrace())
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 1), 2)

	m.Mark("before-free")
	// A local-only round: free, not counted.
	if err := m.RunRound(Round{{From: 0, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	m.Mark("before-real")
	if err := m.RunRound(Round{{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(1, 1, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	m.Mark("trailing")

	prof := m.Profile()
	if got := prof.PerRoundMessages(); len(got) != 1 {
		t.Fatalf("PerRoundMessages = %v, want one counted round", got)
	}
	marks := map[int][]string{}
	for _, mk := range prof.Marks() {
		marks[mk.Round] = mk.Labels
	}
	if got := marks[0]; len(got) != 2 || got[0] != "before-free" || got[1] != "before-real" {
		t.Errorf("Marks[0] = %v, want both labels carried to the counted round", got)
	}
	if got := marks[1]; len(got) != 1 || got[0] != "trailing" {
		t.Errorf("Marks[1] = %v, want the trailing label preserved", got)
	}

	tl := prof.Timeline()
	if !strings.Contains(tl, "before-free+before-real") {
		t.Errorf("timeline lost the merged labels:\n%s", tl)
	}
	if !strings.Contains(tl, "trailing") {
		t.Errorf("timeline lost the trailing label:\n%s", tl)
	}

	// A machine without tracing marks freely and has no profile.
	m2 := New(2, ring.Counting{})
	m2.Mark("noop")
	if m2.Profile() != nil {
		t.Error("profile should be nil when tracing is disabled")
	}
}

// TestPlanSpanReplay checks that spans attached to a plan by a builder are
// replayed into the collector's phase tree by Run, anchored at the machine's
// current round position.
func TestPlanSpanReplay(t *testing.T) {
	m := New(4, ring.Counting{}, WithTrace())
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 1), 2)

	// One counted round before the plan shifts its spans.
	if err := m.RunRound(Round{{From: 0, To: 3, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}

	p := &Plan{}
	p.Append(Round{{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(1, 1, 0), Op: OpSet}})
	p.Append(Round{{From: 2, To: 0, Src: TKey(1, 1, 0), Dst: TKey(1, 1, 1), Op: OpSet}})
	p.Annotate("planned", map[string]float64{"k": 3})
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}

	root := m.Profile().Root()
	if len(root.Children) != 1 {
		t.Fatalf("spans = %d, want the plan's span replayed", len(root.Children))
	}
	s := root.Children[0]
	if s.Label != "planned" || s.Start != 1 || s.End != 3 {
		t.Errorf("span = %q [%d,%d), want planned [1,3)", s.Label, s.Start, s.End)
	}
	if s.Counters["k"] != 3 {
		t.Errorf("counters = %v", s.Counters)
	}
}

// TestPlanSpanExtendShifts checks that Extend re-anchors the extension's
// spans after the receiver's rounds.
func TestPlanSpanExtendShifts(t *testing.T) {
	p := &Plan{}
	p.Append(Round{{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0), Op: OpSet}})
	p.Annotate("first", nil)
	q := &Plan{}
	q.Append(Round{{From: 1, To: 2, Src: AKey(0, 0), Dst: AKey(0, 0), Op: OpSet}})
	q.Annotate("second", nil)
	p.Extend(q)
	if len(p.Spans) != 2 {
		t.Fatalf("spans = %+v", p.Spans)
	}
	if p.Spans[1].Label != "second" || p.Spans[1].Start != 1 || p.Spans[1].End != 2 {
		t.Errorf("extended span = %+v, want second [1,2)", p.Spans[1])
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
