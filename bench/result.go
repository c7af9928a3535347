package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// metric is one reported number. Samples is how many timed operations (or
// lanes, or probe calls) stand behind it; 0 for exact counts.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type workloadResult struct {
	Name   string `json:"name"`
	Ops    int    `json:"ops"`
	Lanes  int    `json:"lanes"`
	Failed int    `json:"failed"`
	// EndToEnd are the gated metrics; Info are printed but not gated.
	EndToEnd map[string]metric `json:"end_to_end"`
	Info     map[string]metric `json:"informational"`
	// Violations are the path assertions that did not hold over the timed ops.
	Violations []string `json:"violations,omitempty"`
}

// ledgerRow is one layer's self time per lane on one workload.
type ledgerRow struct {
	Row string  `json:"row"`
	US  float64 `json:"us"`
}

// result is the lbmm.bench.v1 document one run writes.
type result struct {
	Schema       string                 `json:"schema"`
	GoVersion    string                 `json:"go_version"`
	NProc        int                    `json:"nproc"`
	Seed         int64                  `json:"seed"`
	Rounds       int                    `json:"rounds"`
	SliceSeconds float64                `json:"slice_seconds"`
	Workloads    []workloadResult       `json:"workloads"`
	Traced       *tracedCounts          `json:"traced_pass,omitempty"`
	PerLayer     map[string]metric      `json:"per_layer,omitempty"`
	Ledgers      map[string][]ledgerRow `json:"ledgers,omitempty"`
}

func (r *result) failed() (lanes int, violations []string) {
	if r.Traced != nil {
		lanes, violations = r.Traced.Failed, r.Traced.Violations
	}
	for _, w := range r.Workloads {
		lanes += w.Failed
		for _, v := range w.Violations {
			violations = append(violations, w.Name+": "+v)
		}
	}
	return lanes, violations
}

// print writes every metric as an aligned "name value unit" line.
func (r *result) print(out io.Writer) {
	line := func(name string, m metric) {
		fmt.Fprintf(out, "%-52s %16s %-6s", name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(out, " n=%d", m.Samples)
		}
		fmt.Fprintln(out)
	}
	for _, w := range r.Workloads {
		for _, k := range sortedKeys(w.EndToEnd) {
			line(w.Name+"/"+k, w.EndToEnd[k])
		}
		for _, k := range sortedKeys(w.Info) {
			line(w.Name+"/"+k, w.Info[k])
		}
		line(w.Name+"/ops", metric{Value: float64(w.Ops), Unit: "count"})
		line(w.Name+"/lanes", metric{Value: float64(w.Lanes), Unit: "count"})
		line(w.Name+"/failed", metric{Value: float64(w.Failed), Unit: "count"})
	}
	for _, k := range sortedKeys(r.PerLayer) {
		line(k, r.PerLayer[k])
	}
}

// lastLine is the one JSON object the benchmark contract asks for: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. With several workloads in one run the end-to-end names carry the
// workload as a prefix.
func (r *result) lastLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted := 0
	for _, w := range r.Workloads {
		attempted += w.Lanes
		if traced {
			continue
		}
		for k, m := range w.EndToEnd {
			if len(r.Workloads) > 1 {
				k = w.Name + "/" + k
			}
			metrics[k] = value{m.Value, m.Unit}
		}
	}
	if traced {
		attempted += r.Traced.Lanes
		for k, m := range r.PerLayer {
			metrics[k] = value{m.Value, m.Unit}
		}
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	failed, violations := r.failed()
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && len(violations) == 0, attempted, failed, metrics})
}

func (r *result) writeFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "lbmm.bench.v1" {
		return nil, fmt.Errorf("%s: schema %q, want lbmm.bench.v1", path, r.Schema)
	}
	return &r, nil
}
