package obsv

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// SchemaVersion identifies the trace export format. Consumers must check it
// before parsing; the schema is documented field by field in
// docs/OBSERVABILITY.md and only changes with a version bump.
const SchemaVersion = "lbmm.trace.v1"

// Export is the machine-readable form of a Profile.
type Export struct {
	Schema string `json:"schema"`
	// Meta carries caller-supplied context (algorithm, workload, seed…).
	Meta map[string]string `json:"meta,omitempty"`
	// Rounds is the total counted-round count; Messages the total real
	// messages; LocalCopies the total free copies.
	Rounds      int   `json:"rounds"`
	Messages    int64 `json:"messages"`
	LocalCopies int64 `json:"local_copies"`
	// PerRound[i] is the real-message count of counted round i.
	PerRound []int `json:"per_round"`
	// SendLoad[v] / RecvLoad[v] are cumulative per-node real-message loads.
	SendLoad []int64 `json:"send_load"`
	RecvLoad []int64 `json:"recv_load"`
	// MaxSendLoad / MaxRecvLoad are the per-node maxima (the max receive
	// load is itself a round lower bound for the execution).
	MaxSendLoad int64 `json:"max_send_load"`
	MaxRecvLoad int64 `json:"max_recv_load"`
	// Phases is the span tree. Top-level phases tile [0, Rounds) exactly:
	// gaps between instrumented phases are exported as synthetic
	// "(unphased)" entries, so the top-level round counts always sum to
	// Rounds.
	Phases []*ExportSpan `json:"phases"`
}

// ExportSpan is one phase in the export tree.
type ExportSpan struct {
	Label string `json:"label"`
	// Start/End delimit the counted-round range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Rounds == End - Start, inclusive of child phases.
	Rounds int `json:"rounds"`
	// Messages is the real-message volume of the range.
	Messages int64 `json:"messages"`
	// Counters are builder-reported structural metrics.
	Counters map[string]float64 `json:"counters,omitempty"`
	Children []*ExportSpan      `json:"phases,omitempty"`
}

// Export snapshots the profile into its machine-readable form.
func (p *Profile) Export() *Export {
	rounds := p.rounds
	e := &Export{
		Schema:   SchemaVersion,
		Rounds:   len(rounds),
		Messages: p.Messages(),
		PerRound: p.PerRoundMessages(),
		SendLoad: p.SendLoad(),
		RecvLoad: p.RecvLoad(),
	}
	for _, r := range rounds {
		e.LocalCopies += int64(r.LocalCopies)
	}
	for _, l := range e.SendLoad {
		if l > e.MaxSendLoad {
			e.MaxSendLoad = l
		}
	}
	for _, l := range e.RecvLoad {
		if l > e.MaxRecvLoad {
			e.MaxRecvLoad = l
		}
	}
	root := p.Root()
	for _, c := range root.Children {
		e.Phases = append(e.Phases, exportSpan(c, rounds))
	}
	e.Phases = fillGaps(e.Phases, 0, len(rounds), rounds)
	return e
}

func exportSpan(s *Span, rounds []RoundSample) *ExportSpan {
	out := &ExportSpan{
		Label:    s.Label,
		Start:    s.Start,
		End:      s.End,
		Rounds:   s.Rounds(),
		Messages: s.MessagesIn(rounds),
		Counters: s.Counters,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, exportSpan(c, rounds))
	}
	return out
}

// fillGaps inserts synthetic "(unphased)" spans so the returned list tiles
// [lo, hi) exactly. Input spans must be in order and non-overlapping (the
// machine opens them sequentially, so they are by construction).
func fillGaps(spans []*ExportSpan, lo, hi int, rounds []RoundSample) []*ExportSpan {
	var out []*ExportSpan
	at := lo
	gap := func(from, to int) {
		if to <= from {
			return
		}
		g := &ExportSpan{Label: "(unphased)", Start: from, End: to, Rounds: to - from}
		g.Messages = (&Span{Start: from, End: to}).MessagesIn(rounds)
		out = append(out, g)
	}
	for _, s := range spans {
		gap(at, s.Start)
		out = append(out, s)
		if s.End > at {
			at = s.End
		}
	}
	gap(at, hi)
	return out
}

// WriteJSON writes the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteCSV writes the phase tree as flat CSV rows: one row per phase with
// its slash-joined path, depth, round range, round and message totals, and
// its counters as semicolon-joined key=value pairs.
func (e *Export) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"path", "depth", "start", "end", "rounds", "messages", "counters"}); err != nil {
		return err
	}
	var walk func(prefix string, depth int, spans []*ExportSpan) error
	walk = func(prefix string, depth int, spans []*ExportSpan) error {
		for _, s := range spans {
			path := s.Label
			if prefix != "" {
				path = prefix + "/" + s.Label
			}
			row := []string{
				path,
				strconv.Itoa(depth),
				strconv.Itoa(s.Start),
				strconv.Itoa(s.End),
				strconv.Itoa(s.Rounds),
				strconv.FormatInt(s.Messages, 10),
				formatCounters(s.Counters),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
			if err := walk(path, depth+1, s.Children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk("", 0, e.Phases); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func formatCounters(cs map[string]float64) string {
	if len(cs) == 0 {
		return ""
	}
	keys := sortedKeys(cs)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ";"
		}
		out += fmt.Sprintf("%s=%g", k, cs[k])
	}
	return out
}
