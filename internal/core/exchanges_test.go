package core

import (
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestBenchmarkExchangeCount pins what auto and the hazard pass buy on the
// benchmark's own structures (bench/inputs.go: US:US:US, n=256, d=4, seeds
// 1–64, counting ring, default options), as a count: auto keeps the trivial
// plan on every one of them, and a later change to the chooser, fewtri or
// routing that costs exchanges fails here, not in a timing.
func TestBenchmarkExchangeCount(t *testing.T) {
	const structures = 64
	var rounds, exchanges, depth int
	for seed := int64(1); seed <= structures; seed++ {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, seed)
		prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}})
		if err != nil {
			t.Fatal(err)
		}
		if prep.Resolved() != "trivial" {
			t.Errorf("seed %d: auto kept %s, want trivial", seed, prep.Resolved())
		}
		rep := prep.Exchanges()
		var phaseRounds, phaseExchanges int
		for _, ph := range rep.Phases {
			phaseRounds += ph.Rounds
			phaseExchanges += ph.Exchanges
		}
		if phaseRounds != rep.Rounds || phaseExchanges != rep.Exchanges {
			t.Fatalf("seed %d: phase rows sum to %d rounds / %d exchanges, totals say %d / %d",
				seed, phaseRounds, phaseExchanges, rep.Rounds, rep.Exchanges)
		}
		if rep.Depth > rep.Exchanges || rep.Exchanges > rep.Rounds {
			t.Fatalf("seed %d: want depth ≤ exchanges ≤ rounds, got %d, %d, %d", seed, rep.Depth, rep.Exchanges, rep.Rounds)
		}
		rounds += rep.Rounds
		exchanges += rep.Exchanges
		depth += rep.Depth
	}
	t.Logf("per multiply: %.2f network rounds, %.2f exchanges, dependency depth %.2f",
		float64(rounds)/structures, float64(exchanges)/structures, float64(depth)/structures)
	if 100*exchanges > 105*structures {
		t.Errorf("mean exchanges per multiply %.2f, want ≤ 1.05 (of %.2f network rounds)",
			float64(exchanges)/structures, float64(rounds)/structures)
	}
}
