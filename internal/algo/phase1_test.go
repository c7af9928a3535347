package algo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lbmm/internal/cluster"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/params"
	"lbmm/internal/ring"
	"lbmm/internal/vnet"
	"lbmm/internal/workload"
)

// planted returns an n×n instance of the given clusters: for each, random
// index sets I, J, K of size side, with Â ⊇ I×J, B̂ ⊇ J×K and X̂ ⊇ I×K,
// over uniform noise of d entries a row.
func planted(n, d, clusters, side int, seed int64) *graph.Instance {
	rng := rand.New(rand.NewSource(seed))
	var ae, be, xe [][2]int
	for range clusters {
		I, J, K := rng.Perm(n)[:side], rng.Perm(n)[:side], rng.Perm(n)[:side]
		for _, u := range I {
			for _, v := range J {
				ae = append(ae, [2]int{u, v})
			}
			for _, v := range K {
				xe = append(xe, [2]int{u, v})
			}
		}
		for _, u := range J {
			for _, v := range K {
				be = append(be, [2]int{u, v})
			}
		}
	}
	noise := func(es [][2]int) *matrix.Support {
		return matrix.Union(matrix.NewSupport(n, es), workload.US(n, d, rng))
	}
	return graph.NewInstance(d, noise(ae), noise(be), noise(xe))
}

// placement names the layout choosePlacement gives inst.
func placement(inst *graph.Instance) string {
	if choosePlacement(inst) == lbm.ByRow {
		return "row"
	}
	return "balanced"
}

// maxRow is the longest row of the instance's three supports: the least d
// at which choosePlacement keeps the row layout.
func maxRow(inst *graph.Instance) int {
	return max(inst.Ahat.MaxRowNNZ(), inst.Bhat.MaxRowNNZ(), inst.Xhat.MaxRowNNZ())
}

// withD returns inst with its sparsity parameter set to d, which decides
// the placement (choosePlacement) and the clusters' side length.
func withD(inst *graph.Instance, d int) *graph.Instance {
	return graph.NewInstance(d, inst.Ahat, inst.Bhat, inst.Xhat)
}

// checkPartition plans every batch of a Partition of inst's triangles with
// cluster.PlanBatch on the planner's layout, then Lemma 3.1 on the residual,
// compiles the plan and holds both the compiled walk and the map oracle to
// MulReference. It returns how many batches hold two or more clusters.
func checkPartition(r ring.Semiring, inst *graph.Instance, batches []cluster.Batch, residual []graph.Triangle) (int, error) {
	pl := NewPlanner(r, inst)
	_, isField := ring.AsField(r)
	p := pl.prepared("theorem42")
	net := vnet.Roles(inst.N)
	multi := 0
	for bi, b := range batches {
		pb, err := cluster.PlanBatch(net, inst.N, pl.l, b, isField)
		if err != nil {
			return multi, fmt.Errorf("batch %d/%d (%d clusters): %w", bi+1, len(batches), len(b.Clusters), err)
		}
		p.phase1 = append(p.phase1, pb)
		if len(b.Clusters) > 1 {
			multi++
		}
	}
	if err := pl.phase2(p, residual, pl.positions(residual), nil); err != nil {
		return multi, err
	}
	if err := p.Compile(); err != nil {
		return multi, err
	}
	a := matrix.Random(inst.Ahat, r, int64(inst.D))
	b := matrix.Random(inst.Bhat, r, int64(inst.D)+1)
	want := matrix.MulReference(a, b, inst.Xhat)
	got, _, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b})
	if err != nil {
		return multi, err
	}
	if !matrix.Equal(got[0], want) {
		return multi, fmt.Errorf("%d batches: compiled product differs from MulReference", len(batches))
	}
	m, _, err := p.MultiplyMap(a, b)
	if err != nil {
		return multi, err
	}
	if !matrix.Equal(m, want) {
		return multi, fmt.Errorf("%d batches: map product differs from MulReference", len(batches))
	}
	return multi, nil
}

// TestPhase1PlansOnEitherPlacement holds Theorem 4.2's phase 1 to planning
// every batch Partition returns, on either placement. Each phase of a batch
// is one h-relation over all its clusters' messages, so clusters whose
// input or output owners share a computer (the balanced layout's) plan as
// well as clusters on the row layout's disjoint owners.
//
// Instances: Finding 3's grid (Mixed(128, 16, 1) at d = 16 … 40, MinGain
// 2), then random Mixed, PowerLaw and planted-cluster instances, each at a
// d that forces the balanced layout and one that forces the row layout,
// d ∈ [5, 64], crossed with MinGain ∈ {2, the schedule's first step} and
// TargetResidual ∈ {0, the schedule's first step}, over counting and
// GF(1009). Every plan multiplies to MulReference on both engines, and the
// Theorem 4.2 candidate auto prices does not fail.
func TestPhase1PlansOnEitherPlacement(t *testing.T) {
	rings := []ring.Semiring{ring.Counting{}, ring.NewGFp(1009)}
	var mu sync.Mutex
	multi := map[string]int{} // batches of two or more clusters, by placement
	// check partitions inst's triangles once and plans the batches over
	// each ring of rs.
	check := func(t *testing.T, inst *graph.Instance, opts cluster.PartitionOpts, rs ...ring.Semiring) {
		t.Helper()
		batches, residual := cluster.Partition(inst.Triangles(), inst.N, inst.D, opts)
		for _, r := range rs {
			m, err := checkPartition(r, inst, batches, residual)
			mu.Lock()
			multi[placement(inst)] += m
			mu.Unlock()
			if err != nil {
				t.Errorf("n=%d d=%d (%s), %+v over %s: %v", inst.N, inst.D, placement(inst), opts, r.Name(), err)
			}
		}
	}
	// price holds the Theorem 4.2 candidate auto prices on inst to planning.
	price := func(t *testing.T, inst *graph.Instance) {
		t.Helper()
		for _, r := range rings {
			if _, _, err := NewPlanner(r, inst).Theorem42Candidate().Price(); err != nil {
				t.Errorf("n=%d d=%d (%s) over %s: Theorem42Candidate: %v", inst.N, inst.D, placement(inst), r.Name(), err)
			}
		}
	}

	// The instances run in parallel; the group returns once all have.
	t.Run("instances", func(t *testing.T) {
		grid := workload.Mixed(128, 16, 1)
		for _, d := range []int{16, 24, 30, 31, 32, 40} {
			t.Run(fmt.Sprintf("finding3/d=%d", d), func(t *testing.T) {
				t.Parallel()
				inst := withD(grid, d)
				check(t, inst, cluster.PartitionOpts{MinGain: 2}, rings...)
				price(t, inst)
			})
		}

		rng := rand.New(rand.NewSource(55))
		for trial := range 6 {
			n := 40 + rng.Intn(25)
			seed := rng.Int63()
			var base *graph.Instance
			switch trial % 3 {
			case 0:
				base = workload.Mixed(n, 4+rng.Intn(5), seed)
			case 1:
				base = workload.PowerLaw(n, 2+rng.Intn(3), seed)
			default:
				base = planted(n, 2+rng.Intn(3), 2+rng.Intn(3), 5+rng.Intn(4), seed)
			}
			top := maxRow(base)
			if top <= 5 || top > 64 {
				t.Fatalf("trial %d: longest row %d leaves no d in [5, 64] for both placements", trial, top)
			}
			for _, d := range []int{5 + rng.Intn(top-5), top + rng.Intn(64-top+1)} {
				inst := withD(base, d)
				t.Run(fmt.Sprintf("trial=%d/d=%d", trial, d), func(t *testing.T) {
					t.Parallel()
					// Each ring's axes, with the options the rings share
					// partitioned once.
					var axes []cluster.PartitionOpts
					over := map[cluster.PartitionOpts][]ring.Semiring{}
					for _, r := range rings {
						_, isField := ring.AsField(r)
						lambda := params.LambdaSemiring
						if isField {
							lambda = params.LambdaStrassen
						}
						def := partitionOpts(inst, params.Schedule(lambda, 1e-5, theorem42Alpha(isField, false))[0])
						for _, minGain := range []int{2, def.MinGain} {
							for _, target := range []int{0, def.TargetResidual} {
								o := cluster.PartitionOpts{MinGain: minGain, TargetResidual: target}
								switch rs := over[o]; {
								case rs == nil:
									axes = append(axes, o)
								case rs[len(rs)-1] == r:
									continue // MinGain or TargetResidual is its own default
								}
								over[o] = append(over[o], r)
							}
						}
					}
					for _, o := range axes {
						check(t, inst, o, over[o]...)
					}
					price(t, inst)
				})
			}
		}
	})
	t.Logf("batches of two or more clusters planned: %v", multi)
	if multi["balanced"] == 0 || multi["row"] == 0 {
		t.Errorf("batches of two or more clusters by placement: %v, want some on each", multi)
	}
}
