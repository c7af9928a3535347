package algo

import (
	"fmt"
	"testing"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestPriceIsPlannedCost pins fewtri.Price, the count price auto reads for
// Lemma 3.1, to fewtri.Plan followed by Job.Cost: on every workload family
// at n ∈ {32, 64, 256} and d ∈ {2, 4, 8}, over the whole triangle set and
// over the residual Theorem 4.2's phase 1 leaves over a semiring and over a
// field, at κ natural, 1 and twice natural, the two fail alike, and where
// the price says it is exact it is the planned job's Cost. Where it is not,
// its messages are the Cost's and its rounds a lower bound.
func TestPriceIsPlannedCost(t *testing.T) {
	cases, failed, inexact := 0, 0, 0
	for _, n := range []int{32, 64, 256} {
		for _, d := range []int{2, 4, 8} {
			for _, w := range []struct {
				name string
				inst *graph.Instance
			}{
				{"us", workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 1)},
				{"mixed", workload.Mixed(n, d, 1)},
				{"powerlaw", workload.PowerLaw(n, d, 1)},
				{"hotpair", workload.HotPair(n)},
				{"blocks", workload.Blocks(n, d)},
			} {
				inst := w.inst
				pl := NewPlanner(ring.Counting{}, inst)
				l := pl.l
				sets := map[string][]graph.Triangle{"whole": pl.tris}
				for _, isField := range []bool{false, true} {
					residual, err := clusterSchedule(inst, isField, theorem42Alpha(isField, false), sets["whole"],
						func([]cluster.Batch) error { return nil })
					if err != nil {
						t.Fatal(err)
					}
					sets[fmt.Sprintf("residual/field=%v", isField)] = residual
				}
				for set, tris := range sets {
					pos := pl.positions(tris)
					natural, err := fewtri.Plan(n, l, tris, pos, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, kappa := range []int{0, 1, 2 * natural.Kappa} {
						name := fmt.Sprintf("%s/n%d/d%d/%s/κ=%d", w.name, n, d, set, kappa)
						cases++
						rounds, messages, exact, err := fewtri.Price(n, l, tris, pos, kappa)
						job, planErr := fewtri.Plan(n, l, tris, pos, kappa)
						if fmt.Sprint(err) != fmt.Sprint(planErr) {
							t.Errorf("%s: Price fails with %v, Plan with %v", name, err, planErr)
							continue
						}
						if err != nil {
							failed++
							continue
						}
						planRounds, planMessages := job.Cost()
						switch {
						case exact && (rounds != planRounds || messages != planMessages):
							t.Errorf("%s: priced %d rounds / %d messages, the planned job costs %d / %d",
								name, rounds, messages, planRounds, planMessages)
						case !exact && (rounds > planRounds || messages != planMessages):
							t.Errorf("%s: inexact price %d rounds / %d messages, the planned job costs %d / %d",
								name, rounds, messages, planRounds, planMessages)
						case !exact:
							inexact++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d fail to plan, %d priced inexactly", cases, failed, inexact)
	if failed == 0 {
		t.Error("no case fails the κn precondition: the errors are not compared")
	}
}

// TestCandidatePriceIsCost pins the candidates auto chooses among: each
// one's Price is the Cost of the plan its Plan then builds, Theorem 4.2's
// with and without phase-1 batches, over a semiring and over a field.
func TestCandidatePriceIsCost(t *testing.T) {
	insts := map[string]*graph.Instance{
		"us/n64/d4":       workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 1),
		"mixed/n64/d8":    workload.Mixed(64, 8, 1),
		"hotpair/n64":     workload.HotPair(64),
		"blocks/n64/d8":   workload.Blocks(64, 8),
		"blocks/n128/d16": workload.Blocks(128, 16),
	}
	for name, inst := range insts {
		for _, r := range []ring.Semiring{ring.Counting{}, ring.NewGFp(1009)} {
			pl := NewPlanner(r, inst)
			for _, c := range []Candidate{pl.TrivialCandidate(), pl.Lemma31Candidate(), pl.Theorem42Candidate()} {
				rounds, messages, err := c.Price()
				if err != nil {
					t.Fatalf("%s over %s: %v", name, r.Name(), err)
				}
				p, err := c.Plan()
				if err != nil {
					t.Fatalf("%s over %s: %v", name, r.Name(), err)
				}
				if pr, pm := p.Cost(); pr != rounds || pm != messages {
					t.Errorf("%s over %s: %s priced %d rounds / %d messages, its plan costs %d / %d",
						name, r.Name(), p.Name, rounds, messages, pr, pm)
				}
			}
		}
	}
}
