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

// goldenExport runs the fixed-seed reference execution whose trace is pinned
// in testdata: Lemma 3.1 on the extremal block instance. Everything in the
// pipeline is deterministic (seeded values, sorted message sets, sequential
// engine), so the JSON must be byte-identical run to run.
func goldenExport(t *testing.T) *obsv.Export {
	t.Helper()
	_, _, _, res := tracedRun(t, ring.Counting{}, workload.Blocks(16, 2), planLemma31)
	e := res.Profile.Export()
	e.Meta = map[string]string{"algorithm": res.Name, "workload": "blocks(16,2)"}
	return e
}

// checkGolden compares an exported trace with its golden file in testdata,
// rewriting the file first under -update.
func checkGolden(t *testing.T, e *obsv.Export, file string) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export drifted from golden file %s (run with -update if intended)\ngot:\n%s", path, buf.String())
	}
}

func TestTraceExportGolden(t *testing.T) {
	checkGolden(t, goldenExport(t), "trace_lemma31_blocks.json")
}

// TestTheorem42TraceGolden pins the two-phase plan's trace: its phase1 and
// phase2 marks and spans with their counters, and one cluster/batch span
// per phase-1 batch, on Mixed(32,4,7) over the Boolean semiring, whose
// phase 1 keeps no batch, and on Blocks(32,4) over GF(1009), whose batch
// runs distributed Strassen. The compiled walk, and a plan restored from
// its snapshot, must record the same profile as the map run.
func TestTheorem42TraceGolden(t *testing.T) {
	for _, g := range []struct {
		file, workload string
		inst           *graph.Instance
		r              ring.Semiring
	}{
		{"trace_theorem42_mixed.json", "mixed(32,4,7)", workload.Mixed(32, 4, 7), ring.Boolean{}},
		{"trace_theorem42_blocks_gfp.json", "blocks(32,4)", workload.Blocks(32, 4), ring.NewGFp(1009)},
	} {
		p, a, b, res := tracedRun(t, g.r, g.inst, planTheorem42)
		e := res.Profile.Export()
		e.Meta = map[string]string{"algorithm": res.Name, "workload": g.workload}
		checkGolden(t, e, g.file)

		if err := p.Compile(); err != nil {
			t.Fatal(err)
		}
		q, err := restore(snapshot(t, p))
		if err != nil {
			t.Fatal(err)
		}
		want := res.Profile.Summary()
		for _, pp := range []*Prepared{p, q} {
			_, cres, err := multiplyOne(pp, a, b, lbm.WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			if got := cres.Profile.Summary(); got != want {
				t.Errorf("%s: compiled profile differs from the map run's\n--- map ---\n%s\n--- compiled ---\n%s", g.workload, want, got)
			}
		}
	}
}

func TestTraceExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenExport(t).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenExport(t).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
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
