package obsv

// RoundSample is what a Profile keeps per counted round.
type RoundSample struct {
	// Messages is the number of real cross-node messages in the round.
	Messages int
	// LocalCopies is the number of free From==To copies in the round.
	LocalCopies int
}

// Span is one node of the phase tree: a labelled range of counted rounds
// with optional child spans and builder-reported counters. Start and End
// are counted-round indices, [Start, End); a zero-round phase (one that ran
// but needed no communication) has Start == End and is preserved rather
// than dropped.
type Span struct {
	Label    string
	Start    int
	End      int
	Children []*Span
	Counters map[string]float64

	parent *Span
	open   bool
}

// MarkEntry is one resolved flat mark: Labels anchored at the boundary
// before counted round Round (Round == number of counted rounds for
// trailing marks that never saw another round).
type MarkEntry struct {
	Round  int
	Labels []string
}

// Profile is the standard Collector: it accumulates the full round/phase/
// load picture of one execution. The zero value is not ready; use
// NewProfile.
type Profile struct {
	rounds   []RoundSample
	root     *Span
	cur      *Span
	sendLoad []int64
	recvLoad []int64
	marks    []MarkEntry
	pending  []string
}

// NewProfile returns an empty profile ready to collect.
func NewProfile() *Profile {
	root := &Span{Label: "", open: true}
	return &Profile{root: root, cur: root}
}

var _ Collector = (*Profile)(nil)

// BeginPhase implements Collector.
func (p *Profile) BeginPhase(label string) {
	s := &Span{Label: label, Start: len(p.rounds), End: -1, parent: p.cur, open: true}
	p.cur.Children = append(p.cur.Children, s)
	p.cur = s
}

// EndPhase implements Collector.
func (p *Profile) EndPhase() {
	if p.cur == p.root {
		return
	}
	p.cur.End = len(p.rounds)
	p.cur.open = false
	p.cur = p.cur.parent
}

// Mark implements Collector: the label is carried forward to the next
// counted round, so labels placed before rounds that end up empty (and are
// therefore never counted) merge into the next counted round's boundary
// instead of silently vanishing or mis-anchoring.
func (p *Profile) Mark(label string) {
	p.pending = append(p.pending, label)
}

// OnRound implements Collector.
func (p *Profile) OnRound(messages, localCopies int) {
	if len(p.pending) > 0 {
		p.marks = append(p.marks, MarkEntry{Round: len(p.rounds), Labels: p.pending})
		p.pending = nil
	}
	p.rounds = append(p.rounds, RoundSample{Messages: messages, LocalCopies: localCopies})
}

// OnSend implements Collector.
func (p *Profile) OnSend(from, to int32) {
	p.sendLoad = growTo(p.sendLoad, int(from))
	p.recvLoad = growTo(p.recvLoad, int(to))
	p.sendLoad[from]++
	p.recvLoad[to]++
}

func growTo(xs []int64, idx int) []int64 {
	for len(xs) <= idx {
		xs = append(xs, 0)
	}
	return xs
}

// Counter implements Collector.
func (p *Profile) Counter(name string, delta float64) {
	if p.cur.Counters == nil {
		p.cur.Counters = map[string]float64{}
	}
	p.cur.Counters[name] += delta
}

// Reset empties the profile in place (the lbm machine calls this from its
// own Reset so prepared-plan reruns start from a clean slate).
func (p *Profile) Reset() {
	root := &Span{Label: "", open: true}
	p.rounds = nil
	p.root = root
	p.cur = root
	p.sendLoad = nil
	p.recvLoad = nil
	p.marks = nil
	p.pending = nil
}

// NumRounds returns the number of counted rounds.
func (p *Profile) NumRounds() int { return len(p.rounds) }

// Messages returns the total real-message count.
func (p *Profile) Messages() int64 {
	var total int64
	for _, r := range p.rounds {
		total += int64(r.Messages)
	}
	return total
}

// Rounds returns a copy of the per-round samples.
func (p *Profile) Rounds() []RoundSample {
	return append([]RoundSample(nil), p.rounds...)
}

// PerRoundMessages returns the per-counted-round real message counts — the
// flat view Timeline renders.
func (p *Profile) PerRoundMessages() []int {
	out := make([]int, len(p.rounds))
	for i, r := range p.rounds {
		out[i] = r.Messages
	}
	return out
}

// SendLoad returns a copy of the cumulative per-node send loads (indexed by
// node id; the slice only extends to the largest node that ever sent).
func (p *Profile) SendLoad() []int64 { return append([]int64(nil), p.sendLoad...) }

// RecvLoad returns a copy of the cumulative per-node receive loads.
func (p *Profile) RecvLoad() []int64 { return append([]int64(nil), p.recvLoad...) }

// Marks returns the resolved marks, including pending trailing marks
// (anchored at NumRounds) without mutating the profile.
func (p *Profile) Marks() []MarkEntry {
	out := append([]MarkEntry(nil), p.marks...)
	if len(p.pending) > 0 {
		out = append(out, MarkEntry{Round: len(p.rounds), Labels: append([]string(nil), p.pending...)})
	}
	return out
}

// Root returns a snapshot of the span tree: a copy in which every span
// still open is closed at the current round position, so exports see a
// well-formed tree even mid-run.
func (p *Profile) Root() *Span {
	return snapshotSpan(p.root, len(p.rounds))
}

func snapshotSpan(s *Span, now int) *Span {
	out := &Span{Label: s.Label, Start: s.Start, End: s.End}
	if s.open || out.End < 0 {
		out.End = now
	}
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]float64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	for _, c := range s.Children {
		cc := snapshotSpan(c, now)
		cc.parent = out
		out.Children = append(out.Children, cc)
	}
	return out
}

// Rounds returns the counted-round extent of a span.
func (s *Span) Rounds() int { return s.End - s.Start }

// MessagesIn sums the real messages of rounds [s.Start, s.End) against the
// given per-round samples.
func (s *Span) MessagesIn(rounds []RoundSample) int64 {
	var total int64
	for i := s.Start; i < s.End && i < len(rounds); i++ {
		total += int64(rounds[i].Messages)
	}
	return total
}
