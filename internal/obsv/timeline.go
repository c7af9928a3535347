package obsv

import (
	"fmt"
	"strings"
)

// Timeline renders the flat view of the profile — the per-round message
// counts cut at the Mark boundaries — as a compact text histogram: one line
// per phase segment with its round span, message volume, and a sparkline of
// per-round sizes. Labels that merged onto one boundary join with "+";
// trailing labels with no rounds after them render as zero-round segments.
func (p *Profile) Timeline() string {
	if p == nil {
		return "(tracing disabled)\n"
	}
	perRound := p.PerRoundMessages()
	marks := p.Marks()
	type segment struct {
		label    string
		from, to int // round range [from, to)
	}
	var segs []segment
	current := "start"
	from := 0
	// Marks resolve to strictly increasing rounds (OnRound anchors the
	// pending labels before it counts the round).
	for _, mk := range marks {
		if mk.Round > from {
			segs = append(segs, segment{label: current, from: from, to: mk.Round})
		}
		current = strings.Join(mk.Labels, "+")
		from = mk.Round
	}
	if from < len(perRound) || len(marks) > 0 {
		segs = append(segs, segment{label: current, from: from, to: len(perRound)})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s  %s\n", "phase", "rounds", "messages", "per-round profile")
	for _, s := range segs {
		total := 0
		peak := 0
		for _, v := range perRound[s.from:s.to] {
			total += v
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(&b, "%-28s %10d %10d  %s\n",
			s.label, s.to-s.from, total, spark(perRound[s.from:s.to], peak))
	}
	return b.String()
}

// spark renders up to 40 buckets of the round sizes as a unicode sparkline.
func spark(vals []int, peak int) string {
	if len(vals) == 0 || peak == 0 {
		return ""
	}
	const width = 40
	levels := []rune("▁▂▃▄▅▆▇█")
	buckets := len(vals)
	if buckets > width {
		buckets = width
	}
	out := make([]rune, buckets)
	for i := 0; i < buckets; i++ {
		lo := i * len(vals) / buckets
		hi := (i + 1) * len(vals) / buckets
		if hi == lo {
			hi = lo + 1
		}
		mx := 0
		for _, v := range vals[lo:hi] {
			if v > mx {
				mx = v
			}
		}
		idx := mx * (len(levels) - 1) / peak
		out[i] = levels[idx]
	}
	return string(out)
}
