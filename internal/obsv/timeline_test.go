package obsv

import (
	"strings"
	"testing"
)

func TestTraceTimeline(t *testing.T) {
	p := NewProfile()
	p.Mark("alpha")
	p.OnRound(1, 0)
	p.OnRound(1, 0)
	p.Mark("beta")
	p.OnRound(1, 0)
	if p.NumRounds() != 3 {
		t.Fatalf("rounds = %d", p.NumRounds())
	}
	out := p.Timeline()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Errorf("timeline missing labels:\n%s", out)
	}
	var nilProfile *Profile
	if !strings.Contains(nilProfile.Timeline(), "disabled") {
		t.Error("nil profile timeline")
	}
}

func TestSparkShapes(t *testing.T) {
	if spark(nil, 0) != "" {
		t.Error("empty spark")
	}
	s := spark([]int{1, 2, 4, 8}, 8)
	if len([]rune(s)) != 4 {
		t.Errorf("spark %q", s)
	}
	// Long inputs compress to 40 buckets.
	long := make([]int, 200)
	for i := range long {
		long[i] = i
	}
	if got := len([]rune(spark(long, 199))); got != 40 {
		t.Errorf("compressed spark length %d", got)
	}
}
