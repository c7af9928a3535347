package algo

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lbmm/internal/dense"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// oracleStatsErr holds a compiled run's Stats on p to the map engine's
// Stats of the same run: the same totals, RoundBytes and PeakStore, no
// loads of its own, and the map's per-node loads equal to p.NodeLoads.
func oracleStatsErr(p *Prepared, mapStats, compiled lbm.Stats) error {
	if compiled.SendLoad != nil || compiled.RecvLoad != nil {
		return fmt.Errorf("compiled run counted loads %v / %v", compiled.SendLoad, compiled.RecvLoad)
	}
	totals := mapStats
	totals.SendLoad, totals.RecvLoad = nil, nil
	if !reflect.DeepEqual(totals, compiled) {
		return fmt.Errorf("stats differ from the map oracle\n got %+v\nwant %+v", compiled, mapStats)
	}
	send, recv := p.NodeLoads()
	if !slices.Equal(send, mapStats.SendLoad) || !slices.Equal(recv, mapStats.RecvLoad) {
		return fmt.Errorf("map oracle loads %v / %v, NodeLoads %v / %v", mapStats.SendLoad, mapStats.RecvLoad, send, recv)
	}
	return nil
}

// TestEnginesDifferential is the randomized differential property test of
// the execution spine: the map engine (the reference oracle) and the
// compiled engine must produce identical outputs AND identical totals on
// the same prepared structure and values, the map's per-node loads being
// NodeLoads, across the algorithm matrix — trivial,
// lemma31, theorem42 (whose field variant takes the dense Strassen OpSub
// path), the naive baseline and Table 1's whole-instance dense routines
// (gather, cube, and Strassen over the fields) on a dense and a
// masked-sparse instance — over semirings and fields.
func TestEnginesDifferential(t *testing.T) {
	// full is the dense 8×8 instance; masked a random sparse 12×12 one,
	// whose dead cells the dense routines must leave alone.
	full := func() *graph.Instance {
		var es [][2]int
		for i := range 8 {
			for j := range 8 {
				es = append(es, [2]int{i, j})
			}
		}
		s := matrix.NewSupport(8, es)
		return graph.NewInstance(8, s, s, s)
	}
	masked := func(seed int64) *graph.Instance {
		rng := rand.New(rand.NewSource(seed))
		return graph.NewInstance(12, randomSupport(rng, 12, 48), randomSupport(rng, 12, 48), randomSupport(rng, 12, 36))
	}
	strassen := func(l *lbm.Layout, inst *graph.Instance) (dense.Routine, error) {
		return dense.WholeStrassen(l, inst, nil)
	}
	routine := func(name string, inst *graph.Instance, r ring.Semiring, plan func(*lbm.Layout, *graph.Instance) (dense.Routine, error)) (*Prepared, error) {
		return compile(NewPlanner(r, inst).Dense(name, plan))
	}
	preps := []struct {
		name  string
		field bool // the plan needs a field
		mk    func(r ring.Semiring, seed int64) (*Prepared, error)
	}{
		{"trivial/blocks", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTrivial(r, workload.Blocks(32, 4))
		}},
		{"trivial/mixed", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTrivial(r, workload.Mixed(40, 4, seed))
		}},
		{"lemma31/blocks", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Blocks(32, 4))
		}},
		{"lemma31/mixed", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Mixed(40, 4, seed))
		}},
		{"theorem42/blocks", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Blocks(32, 4))
		}},
		{"theorem42/mixed", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Mixed(40, 4, seed))
		}},
		{"baseline/blocks", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return compile(NewPlanner(r, workload.Blocks(32, 4)).Baseline(0))
		}},
		{"baseline/mixed", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return compile(NewPlanner(r, workload.Mixed(40, 4, seed)).Baseline(0))
		}},
		{"gather/dense", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-gather", full(), r, dense.Gather)
		}},
		{"gather/masked", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-gather", masked(seed), r, dense.Gather)
		}},
		{"cube/dense", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-cube", full(), r, dense.WholeCube)
		}},
		{"cube/masked", false, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-cube", masked(seed), r, dense.WholeCube)
		}},
		{"strassen/dense", true, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-strassen", full(), r, strassen)
		}},
		{"strassen/masked", true, func(r ring.Semiring, seed int64) (*Prepared, error) {
			return routine("dense-strassen", masked(seed), r, strassen)
		}},
	}
	// Counting and MinPlus are plain semirings (OpAcc only); Real and GF(p)
	// are fields, steering theorem42's eligible clusters through distributed
	// Strassen and its signed OpSub accumulation.
	rings := []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.Real{}, ring.NewGFp(1009)}

	engines := []struct {
		name string
		run  multiplyFn
	}{
		{"map", (*Prepared).MultiplyMap},
		{"compiled", multiplyOne},
	}

	for _, pf := range preps {
		for _, r := range rings {
			if _, isField := ring.AsField(r); pf.field && !isField {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/%s/seed%d", pf.name, r.Name(), seed)
				p, err := pf.mk(r, seed)
				if err != nil {
					t.Fatalf("%s: prepare: %v", label, err)
				}
				a := matrix.Random(p.Inst.Ahat, r, 10*seed+1)
				b := matrix.Random(p.Inst.Bhat, r, 10*seed+2)
				var refX *matrix.Sparse
				var refStats lbm.Stats
				for i, e := range engines {
					x, res, err := e.run(p, a, b)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, e.name, err)
					}
					if i == 0 {
						want := matrix.MulReference(a, b, p.Inst.Xhat)
						if !matrix.Equal(x, want) {
							t.Fatalf("%s: %s: wrong product", label, e.name)
						}
						refX, refStats = x, res.Stats
						continue
					}
					if !matrix.Equal(x, refX) {
						t.Errorf("%s: %s: output differs from %s", label, e.name, engines[0].name)
					}
					if err := oracleStatsErr(p, refStats, res.Stats); err != nil {
						t.Errorf("%s: %s: %v", label, e.name, err)
					}
				}
			}
		}
	}
}

// TestEnginesDifferentialProfiles drives the dense cube and Strassen
// routines directly through a theorem42 preparation with aggressive
// clustering (the blocks workload clusters fully), and the trivial job's
// fetch and products, comparing profiles on top of outputs: both engines
// must replay the identical phase-span tree.
func TestEnginesDifferentialProfiles(t *testing.T) {
	inst := workload.Blocks(32, 4)
	for _, r := range []ring.Semiring{ring.Counting{}, ring.Real{}} {
		t42, err := PrepareTheorem42(r, inst)
		if err != nil {
			t.Fatal(err)
		}
		triv, err := PrepareTrivial(r, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Prepared{t42, triv} {
			a := matrix.Random(p.Inst.Ahat, r, 7)
			b := matrix.Random(p.Inst.Bhat, r, 8)
			var summaries []string
			send, recv := p.NodeLoads()
			for _, run := range []multiplyFn{(*Prepared).MultiplyMap, multiplyOne} {
				_, res, err := run(p, a, b, lbm.WithTrace())
				if err != nil {
					t.Fatal(err)
				}
				if res.Profile == nil {
					t.Fatalf("%s/%s/%s: no profile", p.Name, r.Name(), res.Engine)
				}
				summaries = append(summaries, res.Profile.Summary())
				// The profile grows its load vectors to the last node that
				// sent or received.
				if ps, pr := res.Profile.SendLoad(), res.Profile.RecvLoad(); !slices.Equal(ps, send[:len(ps)]) || !slices.Equal(pr, recv[:len(pr)]) {
					t.Errorf("%s/%s/%s: profiled loads %v / %v, NodeLoads %v / %v", p.Name, r.Name(), res.Engine, ps, pr, send, recv)
				}
			}
			if summaries[0] != summaries[1] {
				t.Errorf("%s/%s: phase profiles differ\n--- map ---\n%s\n--- compiled ---\n%s",
					p.Name, r.Name(), summaries[0], summaries[1])
			}
		}
	}
}
