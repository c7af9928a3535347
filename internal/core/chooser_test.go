package core

import (
	"errors"
	"fmt"
	"testing"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestAutoKeepsCheapestPlan pins Prepare's "auto" with counts: on the bench
// workloads at n=256, d=4 and on the extremal blocks at n=8d, every
// candidate's static Cost equals what its multiply charges to Stats, auto's
// (rounds, messages) is the minimum over the fixed algorithms, and the plan
// it keeps is the one named here — the paper's crossover turned into policy
// (EXPERIMENTS.md, "Which plan auto keeps").
func TestAutoKeepsCheapestPlan(t *testing.T) {
	cases := []struct {
		name string
		inst *graph.Instance
		want string
	}{
		{"us/n256/d4", workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 42), "trivial"},
		{"powerlaw/n256/d4", workload.PowerLaw(256, 4, 42), "trivial"},
		{"mixed/n256/d4", workload.Mixed(256, 4, 42), "trivial"},
		{"blocks/n256/d4", workload.Blocks(256, 4), "trivial"},
		{"blocks/n64/d8", workload.Blocks(64, 8), "trivial"},
		{"blocks/n128/d16", workload.Blocks(128, 16), "theorem42"},
		{"blocks/n256/d32", workload.Blocks(256, 32), "theorem42"},
	}
	r := ring.Counting{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.inst.D > 16 {
				t.Skip("large instance")
			}
			inst := tc.inst
			a, b := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
			cost := map[string][2]int{}
			var line string
			for _, alg := range []string{"trivial", "lemma31", "theorem42", "auto"} {
				p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: inst.D, Algorithm: alg})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				rounds, messages := p.inner.Cost()
				_, rep, err := p.Multiply(a, b)
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				if rep.Stats.Rounds != rounds || rep.Stats.Messages != int64(messages) {
					t.Errorf("%s: static cost %d rounds / %d messages, the multiply charged %d / %d",
						alg, rounds, messages, rep.Stats.Rounds, rep.Stats.Messages)
				}
				if rep.Name != p.Resolved() {
					t.Errorf("%s: report says %q, the plan is %q", alg, rep.Name, p.Resolved())
				}
				if alg == "auto" {
					if p.Resolved() != tc.want {
						t.Errorf("auto kept %s, want %s", p.Resolved(), tc.want)
					}
					if best := cost[tc.want]; [2]int{rounds, messages} != best {
						t.Errorf("auto costs %d/%d, %s costs %d/%d", rounds, messages, tc.want, best[0], best[1])
					}
				}
				for fixed, c := range cost {
					if alg == "auto" && (c[0] < rounds || c[0] == rounds && c[1] < messages) {
						t.Errorf("auto (%d/%d) is worse than %s (%d/%d)", rounds, messages, fixed, c[0], c[1])
					}
				}
				cost[alg] = [2]int{rounds, messages}
				line += fmt.Sprintf(" %s %d/%d", alg, rounds, messages)
			}
			t.Logf("band %v:%s", Classify(inst.Classify()), line)
		})
	}
}

// TestCheapestSkipsFailingCandidate pins auto's failure rule: a candidate
// whose pricing fails is skipped, so the others still compete and the
// cheapest of them is kept; only when every candidate fails is there an
// error, and it carries each candidate's.
func TestCheapestSkipsFailingCandidate(t *testing.T) {
	inst := workload.Blocks(32, 4)
	errA, errB := errors.New("stub candidate A cannot plan"), errors.New("stub candidate B cannot plan")
	failing := func(err error) algo.Candidate {
		return algo.Candidate{
			Price: func() (int, int, error) { return 0, 0, err },
			Plan: func() (*algo.Prepared, error) {
				t.Error("a candidate that failed to price was planned")
				return nil, err
			},
		}
	}
	for _, first := range []bool{true, false} {
		trivial := algo.NewPlanner(ring.Counting{}, inst).TrivialCandidate()
		order := []algo.Candidate{failing(errA), trivial}
		if !first {
			order = []algo.Candidate{trivial, failing(errA)}
		}
		p, err := cheapestOf(order)
		if err != nil {
			t.Fatalf("a failing candidate failed auto: %v", err)
		}
		if p.Name != "trivial" {
			t.Fatalf("auto kept %q, want the one candidate that planned", p.Name)
		}
		a, b := matrix.Random(inst.Ahat, ring.Counting{}, 1), matrix.Random(inst.Bhat, ring.Counting{}, 2)
		outs, _, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b})
		if err != nil || !matrix.Equal(outs[0], matrix.MulReference(a, b, inst.Xhat)) {
			t.Fatalf("the kept plan is not compiled or multiplies wrong: %v", err)
		}
	}
	_, err := cheapestOf([]algo.Candidate{failing(errA), failing(errB)})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("every candidate failed: err = %v, want both candidates' errors", err)
	}
}
