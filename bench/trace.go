package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the harness recorded around a call it made.
// Spans of one operation share Op; Parent names the span of the same
// operation that caused this one ("" for the operation itself).
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Op       int64  `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced slices run the same code.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	op       int64
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enter names the workload (or "probe") the following operations belong to.
func (t *tracer) enter(workload string) {
	t.mu.Lock()
	t.workload = workload
	t.mu.Unlock()
}

// nextOp starts a new operation and returns its id.
func (t *tracer) nextOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

func (t *tracer) add(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Workload: t.workload, Name: name, Parent: parent, Op: op,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns, in µs, the length of every span of the workload with
// the given name.
func (t *tracer) durations(workload, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"lbmm.bench.trace.v1", t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// percentile returns the p-th percentile (0..100) of the values by linear
// interpolation between closest ranks; 0 for no values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
