package fewtri

import (
	"fmt"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/workload"
)

// TestPricedCostIsColouredCost pins Job.Cost's pricing: on every workload
// family at n ∈ {32, 64, 128, 256} and d ∈ {2, 4, 8, 16}, each job shape —
// trivial, Lemma 3.1 and the naive router — prices to the Cost its plans
// charge once coloured, and pricing colours nothing.
func TestPricedCostIsColouredCost(t *testing.T) {
	for _, n := range []int{32, 64, 128, 256} {
		for _, d := range []int{2, 4, 8, 16} {
			if testing.Short() && n*d > 1024 {
				continue
			}
			for _, w := range []struct {
				name string
				inst *graph.Instance
			}{
				{"us", workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 1)},
				{"us:us:as", workload.Instance(matrix.US, matrix.US, matrix.AS, n, d, 1)},
				{"mixed", workload.Mixed(n, d, 1)},
				{"powerlaw", workload.PowerLaw(n, d, 1)},
				{"hotpair", workload.HotPair(n)},
				{"blocks", workload.Blocks(n, d)},
			} {
				l := layoutFor(w.inst)
				tris, pos, _, _, _ := w.inst.TrianglesLive()
				lemma, err := Plan(n, l, tris, pos, 0)
				if err != nil {
					t.Fatalf("%s/n%d/d%d: %v", w.name, n, d, err)
				}
				for _, job := range []*Job{PlanTrivial(l, tris, pos), lemma, PlanNaive(n, l, tris, pos, 0)} {
					name := fmt.Sprintf("%s/n%d/d%d/%s", w.name, n, d, job.shapeName())
					uncoloured := job.uncoloured()
					rounds, messages := job.Cost()
					if uncoloured == 0 || job.uncoloured() != uncoloured {
						t.Fatalf("%s: %d h-relations uncoloured before pricing, %d after", name, uncoloured, job.uncoloured())
					}
					job.Colour()
					var cr, cm int
					for _, rt := range job.routes {
						r, m := rt.plan.Cost()
						cr += r
						cm += m
					}
					if rounds != cr || messages != cm {
						t.Errorf("%s: priced %d rounds / %d messages, coloured plans charge %d / %d", name, rounds, messages, cr, cm)
					}
				}
			}
		}
	}
}

// uncoloured counts the job's h-relations Colour has not scheduled.
func (job *Job) uncoloured() int {
	n := 0
	for _, rt := range job.routes {
		if rt.plan == nil {
			n++
		}
	}
	return n
}

// shapeName names a job's shape in test logs.
func (job *Job) shapeName() string {
	if job.sh == nil {
		return "empty"
	}
	return job.sh.phase
}

// layoutFor is algo.ChooseLayout's rule: the row layout when every row of
// every support fits in d, the balanced layout otherwise.
func layoutFor(inst *graph.Instance) *lbm.Layout {
	d := max(inst.D, 1)
	if inst.Ahat.MaxRowNNZ() <= d && inst.Bhat.MaxRowNNZ() <= d && inst.Xhat.MaxRowNNZ() <= d {
		return lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	}
	return lbm.Balanced.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
}
