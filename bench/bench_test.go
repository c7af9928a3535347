package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the harness has to honour.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHarness runs every workload for one short round plus the traced pass
// and holds the output against BENCHMARK.json and the path assertions.
func TestHarness(t *testing.T) {
	want := readContract(t)
	cfg := config{seed: 7, rounds: 1, seconds: 0.1, trace: true, calls: 3, outDir: t.TempDir()}
	for _, w := range want.Workloads {
		cfg.workloads = append(cfg.workloads, w.Name)
	}
	if len(cfg.workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(cfg.workloads), len(specs))
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if failed, violations := res.failed(); failed != 0 || len(violations) != 0 {
		t.Errorf("%d lanes failed, violations: %v", failed, violations)
	}
	for _, w := range res.Workloads {
		if w.Ops == 0 || w.Lanes != w.Ops*mustSpec(t, w.Name).lanesPerOp {
			t.Errorf("%s: %d ops, %d lanes", w.Name, w.Ops, w.Lanes)
		}
		if len(w.EndToEnd) != len(want.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(w.EndToEnd), len(want.EndToEnd))
		}
		for _, m := range want.EndToEnd {
			got, ok := w.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s/%s = %+v (present %v), want a positive finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if len(res.PerLayer) != len(want.PerLayer) {
		t.Errorf("harness reports %d per-layer metrics, BENCHMARK.json names %d", len(res.PerLayer), len(want.PerLayer))
	}
	for _, m := range want.PerLayer {
		got, ok := res.PerLayer[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
		}
	}
	for name, rows := range res.Ledgers {
		var sum, lane float64
		for _, r := range rows {
			switch r.Row {
			case "sum":
			case "lane":
				lane = r.US
			default:
				sum += r.US
			}
		}
		if math.Abs(sum-lane) > 1e-6*math.Abs(lane) {
			t.Errorf("ledger %s: rows and unattributed add to %v, traced lane_us is %v", name, sum, lane)
		}
	}

	for _, traced := range []bool{false, true} {
		line, err := res.lastLine(traced)
		if err != nil {
			t.Fatal(err)
		}
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(line, &last); err != nil {
			t.Fatal(err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) == 0 {
			t.Errorf("last line (traced %v): %s", traced, line)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.outDir, "trace.json")); err != nil {
		t.Error(err)
	}

	// A set of runs compared with itself is within every bound; a set whose
	// lanes read twice as fast is outside, because runs of one commit have
	// to agree in both directions.
	path, faster := filepath.Join(cfg.outDir, "result.json"), filepath.Join(cfg.outDir, "faster.json")
	if err := res.writeFile(path); err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workloads {
		m := w.EndToEnd["lane_us"]
		m.Value /= 2
		w.EndToEnd["lane_us"] = m
	}
	if err := res.writeFile(faster); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	ok, err := compare(&table, "../BENCHMARK.json", []string{path, path}, []string{path, path})
	if err != nil || !ok {
		t.Errorf("compare a set with itself: ok=%v err=%v\n%s", ok, err, table.String())
	}
	table.Reset()
	ok, err = compare(&table, "../BENCHMARK.json", []string{path, path}, []string{faster, faster})
	if err != nil || ok || !strings.Contains(table.String(), "OUTSIDE") {
		t.Errorf("compare a set with one twice as fast: ok=%v err=%v\n%s", ok, err, table.String())
	}
}

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return sp
}

func TestSeedsGenerateDifferentStructures(t *testing.T) {
	fps := map[string]int64{}
	for _, seed := range []int64{1, 2, 1} {
		s, err := generate(streamN, seed, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := s.fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if other, seen := fps[fp]; seen && other != seed {
			t.Errorf("seeds %d and %d generate the same fingerprint", other, seed)
		}
		fps[fp] = seed
	}
	if len(fps) != 2 {
		t.Errorf("%d distinct fingerprints from seeds 1, 2, 1; want 2", len(fps))
	}
}

// TestQuartilesMatchPython pins the comparison's quartiles to
// statistics.quantiles(values, n=4), which the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}
