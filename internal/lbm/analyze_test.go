package lbm

import (
	"strings"
	"testing"

	"lbmm/internal/ring"
)

func TestAnalyzePlanMatchesExecution(t *testing.T) {
	m := New(4, ring.Counting{})
	m.Put(0, AKey(0, 0), 1)
	m.Put(1, AKey(1, 0), 2)
	m.Put(2, AKey(2, 0), 3)
	p := &Plan{}
	p.Append(Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: TKey(0, 0, 0)},
		{From: 1, To: 2, Src: AKey(1, 0), Dst: TKey(1, 0, 0)},
		{From: 3, To: 3, Src: AKey(0, 0), Dst: AKey(0, 0)}, // local (3 lacks it, but analysis is static)
	})
	p.Append(Round{
		{From: 2, To: 0, Src: AKey(2, 0), Dst: TKey(2, 0, 0)},
	})
	a := AnalyzePlan(p, 4)
	if !a.Valid() {
		t.Fatalf("violations: %v", a.Violations)
	}
	if a.Rounds != 2 || a.Messages != 3 || a.LocalCopies != 1 || a.MaxRoundSize != 2 {
		t.Errorf("analysis = %+v", a)
	}
	if a.MaxSendLoad() != 1 || a.MaxRecvLoad() != 1 {
		t.Errorf("loads = %d/%d", a.MaxSendLoad(), a.MaxRecvLoad())
	}

	// Execute (after fixing node 3's local source) and compare.
	m.Put(3, AKey(0, 0), 9)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rounds != a.Rounds || st.Messages != a.Messages || st.LocalCopies != a.LocalCopies {
		t.Errorf("executed %+v vs analyzed %+v", st, a)
	}
}

func TestAnalyzePlanFindsViolations(t *testing.T) {
	p := &Plan{}
	p.Append(Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: AKey(0, 0)},
		{From: 0, To: 2, Src: AKey(0, 1), Dst: AKey(0, 1)},
		{From: 3, To: 2, Src: AKey(3, 0), Dst: AKey(3, 0)},
		{From: 9, To: 0, Src: AKey(9, 0), Dst: AKey(9, 0)},
	})
	a := AnalyzePlan(p, 4)
	if a.Valid() || len(a.Violations) != 3 {
		t.Fatalf("violations = %v", a.Violations)
	}
	joined := strings.Join(a.Violations, ";")
	for _, want := range []string{"sends twice", "receives twice", "out of range"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %v", want, a.Violations)
		}
	}
}

func TestCutTraffic(t *testing.T) {
	p := &Plan{}
	p.Append(Round{
		{From: 0, To: 2, Src: AKey(0, 0), Dst: AKey(0, 0)}, // A -> B
		{From: 3, To: 1, Src: AKey(3, 0), Dst: AKey(3, 0)}, // B -> A
		{From: 0, To: 0, Src: AKey(0, 0), Dst: TKey(0, 0, 0)},
	})
	p.Append(Round{
		{From: 1, To: 0, Src: AKey(3, 0), Dst: TKey(1, 0, 0)}, // A -> A
		{From: 2, To: 3, Src: AKey(0, 0), Dst: TKey(2, 0, 0)}, // B -> B
	})
	alice := map[NodeID]bool{0: true, 1: true}
	ab, ba := CutTraffic(p, alice)
	if ab != 1 || ba != 1 {
		t.Errorf("cut = %d/%d, want 1/1", ab, ba)
	}
}
