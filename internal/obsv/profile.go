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

// Profile is the standard Collector: it accumulates the full round/phase/
// load picture of one execution. The zero value is not ready; use
// NewProfile.
type Profile struct {
	rounds   []RoundSample
	root     *Span
	cur      *Span
	sendLoad []int64
	recvLoad []int64
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

// OnRound implements Collector.
func (p *Profile) OnRound(messages, localCopies int) {
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

// Messages returns the total real-message count.
func (p *Profile) Messages() int64 {
	var total int64
	for _, r := range p.rounds {
		total += int64(r.Messages)
	}
	return total
}

// PerRoundMessages returns the per-counted-round real message counts.
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
