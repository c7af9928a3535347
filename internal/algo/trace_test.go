package algo

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracedRun plans alg for the instance, runs the plan traced on the map
// engine over the values drawn from seeds 1 and 2, checks the product and
// returns the plan, the values and the result.
func tracedRun(t *testing.T, r ring.Semiring, inst *graph.Instance, alg planFn) (*Prepared, *matrix.Sparse, *matrix.Sparse, *Result) {
	t.Helper()
	p, err := alg(NewPlanner(r, inst))
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	got, res, err := p.MultiplyMap(a, b, lbm.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(got, a, b, inst.Xhat); err != nil {
		t.Fatal(err)
	}
	return p, a, b, res
}

// traceJSON returns a profile's export under meta as JSON.
func traceJSON(t *testing.T, prof *obsv.Profile, meta map[string]string) []byte {
	t.Helper()
	e := prof.Export()
	e.Meta = meta
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// golden returns the golden trace file in testdata, rewriting it with got
// first under -update.
func golden(t *testing.T, file string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	return want
}

// checkTraceGolden pins a plan's trace byte for byte on both engines: the
// map run, the compiled walk and a plan restored from its snapshot must each
// export the golden file's JSON.
func checkTraceGolden(t *testing.T, file, wl string, inst *graph.Instance, r ring.Semiring, plan planFn) {
	t.Helper()
	p, a, b, res := tracedRun(t, r, inst, plan)
	meta := map[string]string{"algorithm": res.Name, "workload": wl}
	got := traceJSON(t, res.Profile, meta)
	want := golden(t, file, got)
	if !bytes.Equal(got, want) {
		t.Errorf("map trace drifted from golden file %s (run with -update if intended)\ngot:\n%s", file, got)
	}

	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	q, err := restore(snapshot(t, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		walk string
		p    *Prepared
	}{{"compiled", p}, {"restored", q}} {
		_, cres, err := multiplyOne(w.p, a, b, lbm.WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		if got := traceJSON(t, cres.Profile, meta); !bytes.Equal(got, want) {
			t.Errorf("%s: the %s walk's trace differs from golden file %s\ngot:\n%s", wl, w.walk, file, got)
		}
	}
}

// TestTraceExportGolden pins the reference trace of Lemma 3.1 on the
// extremal block instance (goldenTrace's) on both engines.
func TestTraceExportGolden(t *testing.T) {
	checkTraceGolden(t, "trace_lemma31_blocks.json", "blocks(16,2)", workload.Blocks(16, 2), ring.Counting{}, planLemma31)
}

// TestTheorem42TraceGolden pins the two-phase plan's trace on both engines:
// its phase1 and phase2 spans with their counters, and one
// cluster/batch span per phase-1 batch, on Mixed(32,4,7) over the Boolean
// semiring, whose phase 1 keeps no batch, and on Blocks(32,4) over
// GF(1009), whose batch runs distributed Strassen.
func TestTheorem42TraceGolden(t *testing.T) {
	checkTraceGolden(t, "trace_theorem42_mixed.json", "mixed(32,4,7)", workload.Mixed(32, 4, 7), ring.Boolean{}, planTheorem42)
	checkTraceGolden(t, "trace_theorem42_blocks_gfp.json", "blocks(32,4)", workload.Blocks(32, 4), ring.NewGFp(1009), planTheorem42)
}

// goldenTrace runs the fixed-seed reference execution whose trace is pinned
// in testdata/trace_lemma31_blocks.json: Lemma 3.1 on the extremal block
// instance. Everything in the pipeline is deterministic (seeded values,
// sorted message sets, sequential engine), so the JSON must be
// byte-identical run to run.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	_, _, _, res := tracedRun(t, ring.Counting{}, workload.Blocks(16, 2), planLemma31)
	return traceJSON(t, res.Profile, map[string]string{"algorithm": res.Name, "workload": "blocks(16,2)"})
}

func TestTraceExportDeterministic(t *testing.T) {
	if !bytes.Equal(goldenTrace(t), goldenTrace(t)) {
		t.Error("two identical runs exported different traces")
	}
}

// TestTheorem42PhaseRoundsTile pins the export invariant the CLI relies on:
// on a full two-phase run, the top-level phase round counts sum exactly to
// the total (gaps, if any, appear as explicit "(unphased)" spans).
func TestTheorem42PhaseRoundsTile(t *testing.T) {
	_, _, _, res := tracedRun(t, ring.Boolean{}, workload.Mixed(32, 4, 7), planTheorem42)
	e := res.Profile.Export()
	if e.Rounds != res.Rounds {
		t.Errorf("export rounds %d != result rounds %d", e.Rounds, res.Rounds)
	}
	sum, at := 0, 0
	for _, s := range e.Phases {
		sum += s.Rounds
		if s.Start != at {
			t.Errorf("phase %q starts at %d, want %d", s.Label, s.Start, at)
		}
		at = s.End
	}
	if sum != e.Rounds || at != e.Rounds {
		t.Errorf("top-level phases sum to %d, tile to %d, total %d", sum, at, e.Rounds)
	}
	var msgs int64
	for _, s := range e.Phases {
		msgs += s.Messages
	}
	if msgs != e.Messages {
		t.Errorf("top-level phase messages sum to %d, total %d", msgs, e.Messages)
	}
}
