package obsv

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("outer")
	p.OnRound(3, 0)
	p.BeginPhase("inner")
	p.OnRound(2, 1)
	p.OnRound(1, 0)
	p.EndPhase()
	p.BeginPhase("empty")
	p.EndPhase()
	p.OnRound(4, 0)
	p.EndPhase()

	root := p.Root()
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	outer := root.Children[0]
	if outer.Label != "outer" || outer.Start != 0 || outer.End != 4 {
		t.Errorf("outer = %q [%d,%d)", outer.Label, outer.Start, outer.End)
	}
	if len(outer.Children) != 2 {
		t.Fatalf("outer children = %d", len(outer.Children))
	}
	inner := outer.Children[0]
	if inner.Label != "inner" || inner.Start != 1 || inner.End != 3 {
		t.Errorf("inner = %q [%d,%d)", inner.Label, inner.Start, inner.End)
	}
	// A zero-round phase is preserved, not dropped.
	empty := outer.Children[1]
	if empty.Label != "empty" || empty.Start != 3 || empty.End != 3 || empty.Rounds() != 0 {
		t.Errorf("empty = %q [%d,%d)", empty.Label, empty.Start, empty.End)
	}
	if got := inner.MessagesIn(p.rounds); got != 3 {
		t.Errorf("inner messages = %d, want 3", got)
	}
}

func TestSpanNestingNeverUnderflows(t *testing.T) {
	p := NewProfile()
	p.EndPhase() // extra EndPhase at root must be a no-op
	p.BeginPhase("a")
	p.EndPhase()
	p.EndPhase()
	p.BeginPhase("b")
	p.OnRound(1, 0)
	p.EndPhase()
	root := p.Root()
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2 (a and b as siblings)", len(root.Children))
	}
	if root.Children[1].Label != "b" || root.Children[1].Start != 0 {
		t.Errorf("b = %+v", root.Children[1])
	}
}

func TestRootSnapshotClosesOpenSpans(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("open")
	p.OnRound(1, 0)
	root := p.Root()
	if root.Children[0].End != 1 {
		t.Errorf("mid-run snapshot End = %d, want 1", root.Children[0].End)
	}
	// The live tree must still be open: another round extends the span.
	p.OnRound(1, 0)
	p.EndPhase()
	if got := p.Root().Children[0].End; got != 2 {
		t.Errorf("after close End = %d, want 2", got)
	}
}

func TestSendRecvLoadsSumToPerRound(t *testing.T) {
	p := NewProfile()
	send := func(pairs ...[2]int32) {
		for _, pr := range pairs {
			p.OnSend(pr[0], pr[1])
		}
		p.OnRound(len(pairs), 0)
	}
	send([2]int32{0, 1}, [2]int32{2, 3})
	send([2]int32{1, 0})
	send([2]int32{3, 0}, [2]int32{1, 2}, [2]int32{0, 3})

	var perRound int64
	for _, v := range p.PerRoundMessages() {
		perRound += int64(v)
	}
	var sent, recvd int64
	for _, v := range p.SendLoad() {
		sent += v
	}
	for _, v := range p.RecvLoad() {
		recvd += v
	}
	if sent != perRound || recvd != perRound {
		t.Errorf("send=%d recv=%d per-round=%d; all must agree", sent, recvd, perRound)
	}
	if p.SendLoad()[0] != 2 || p.RecvLoad()[0] != 2 || p.RecvLoad()[3] != 2 {
		t.Errorf("loads = %v / %v", p.SendLoad(), p.RecvLoad())
	}
}

func TestCounterAccumulatesOnCurrentSpan(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("x")
	p.Counter("items", 2)
	p.Counter("items", 3)
	p.EndPhase()
	if got := p.Root().Children[0].Counters["items"]; got != 5 {
		t.Errorf("items = %v, want 5", got)
	}
}

func TestExportGapTiling(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("x")
	p.OnRound(2, 0)
	p.EndPhase()
	p.OnRound(7, 0) // instrumentation gap
	p.BeginPhase("y")
	p.OnRound(1, 0)
	p.EndPhase()

	e := p.Export()
	if e.Schema != SchemaVersion {
		t.Errorf("schema = %q", e.Schema)
	}
	labels := make([]string, len(e.Phases))
	sum := 0
	at := 0
	for i, s := range e.Phases {
		labels[i] = s.Label
		sum += s.Rounds
		if s.Start != at {
			t.Errorf("phase %q starts at %d, want %d (must tile)", s.Label, s.Start, at)
		}
		at = s.End
	}
	if want := []string{"x", "(unphased)", "y"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	if sum != e.Rounds || at != e.Rounds {
		t.Errorf("top-level rounds sum to %d, tile to %d; total %d", sum, at, e.Rounds)
	}
	if e.Phases[1].Messages != 7 {
		t.Errorf("(unphased) messages = %d, want 7", e.Phases[1].Messages)
	}
}

func TestExportJSONRoundTrips(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("x")
	p.OnSend(0, 1)
	p.OnRound(1, 2)
	p.Counter("k", 1.5)
	p.EndPhase()
	e := p.Export()
	e.Meta = map[string]string{"algorithm": "test"}

	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"marks"`)) {
		t.Errorf("the export carries a marks key:\n%s", buf.String())
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.Rounds != 1 || back.Messages != 1 || back.LocalCopies != 2 {
		t.Errorf("round-trip = %+v", back)
	}
	if back.Phases[0].Counters["k"] != 1.5 || back.Meta["algorithm"] != "test" {
		t.Errorf("round-trip lost details: %+v", back)
	}
}

func TestExportCSVShape(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("a")
	p.OnRound(1, 0)
	p.BeginPhase("b")
	p.Counter("z", 2)
	p.Counter("y", 1)
	p.OnRound(1, 0)
	p.EndPhase()
	p.EndPhase()

	var buf bytes.Buffer
	if err := p.Export().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + a + a/b
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if want := []string{"path", "depth", "start", "end", "rounds", "messages", "counters"}; !reflect.DeepEqual(rows[0], want) {
		t.Errorf("header = %v", rows[0])
	}
	if rows[2][0] != "a/b" || rows[2][1] != "1" {
		t.Errorf("nested row = %v, want path a/b at depth 1", rows[2])
	}
	// Counters render sorted, so the CSV is deterministic.
	if rows[2][6] != "y=1;z=2" {
		t.Errorf("counters = %q, want y=1;z=2", rows[2][6])
	}
}

func TestSummaryRendersPhasesAndTotals(t *testing.T) {
	p := NewProfile()
	p.BeginPhase("alpha")
	p.OnRound(4, 0)
	p.BeginPhase("beta")
	p.OnRound(2, 0)
	p.EndPhase()
	p.EndPhase()
	s := p.Summary()
	for _, want := range []string{"alpha", "beta", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSparkShapes(t *testing.T) {
	if sparkline(nil, 0) != "" {
		t.Error("empty sparkline")
	}
	s := []rune(sparkline([]int{1, 2, 4, 8}, 8))
	if len(s) != 4 || s[3] != '█' {
		t.Errorf("sparkline %q, want 4 buckets ending at the peak", string(s))
	}
	// Long inputs compress to 24 buckets.
	long := make([]int, 200)
	for i := range long {
		long[i] = i
	}
	if got := len([]rune(sparkline(long, 199))); got != 24 {
		t.Errorf("compressed sparkline length %d", got)
	}
}
