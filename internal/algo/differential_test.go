package algo

import (
	"fmt"
	"reflect"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestEnginesDifferential is the randomized differential property test of
// the execution spine: the sequential map engine (the reference oracle),
// the Workers>1 map engine, and the compiled engine (sequential only)
// must produce identical outputs AND identical Stats on the same
// prepared structure and values, across the algorithm matrix — lemma31 and
// theorem42 (whose field variant takes the dense Strassen OpSub path) over
// semirings and fields.
func TestEnginesDifferential(t *testing.T) {
	preps := []struct {
		name string
		mk   func(r ring.Semiring, seed int64) (*Prepared, error)
	}{
		{"lemma31/blocks", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Blocks(32, 4))
		}},
		{"lemma31/mixed", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Mixed(40, 4, seed))
		}},
		{"theorem42/blocks", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Blocks(32, 4), Theorem42Opts{})
		}},
		{"theorem42/mixed", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Mixed(40, 4, seed), Theorem42Opts{})
		}},
	}
	// Counting and MinPlus are plain semirings (OpAcc only); Real and GF(p)
	// are fields, steering theorem42's eligible clusters through distributed
	// Strassen and its signed OpSub accumulation.
	rings := []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.Real{}, ring.NewGFp(1009)}

	par := []lbm.Option{lbm.WithWorkers(4), lbm.WithParBatch(1)}
	engines := []struct {
		name string
		run  multiplyFn
		opts []lbm.Option
	}{
		{"map/seq", (*Prepared).MultiplyMap, nil},
		{"map/par", (*Prepared).MultiplyMap, par},
		{"compiled", multiplyOne, nil},
	}

	for _, pf := range preps {
		for _, r := range rings {
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
					x, res, err := e.run(p, a, b, e.opts...)
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
					if !reflect.DeepEqual(res.Stats, refStats) {
						t.Errorf("%s: %s: stats differ from %s\n got %+v\nwant %+v",
							label, e.name, engines[0].name, res.Stats, refStats)
					}
				}
			}
		}
	}
}

// TestEnginesDifferentialDense drives the dense cube and Strassen routines
// directly through a theorem42 preparation with aggressive clustering (the
// blocks workload clusters fully), comparing profiles on top of outputs:
// both engines must replay the identical phase-span tree.
func TestEnginesDifferentialProfiles(t *testing.T) {
	for _, r := range []ring.Semiring{ring.Counting{}, ring.Real{}} {
		p, err := PrepareTheorem42(r, workload.Blocks(32, 4), Theorem42Opts{})
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(p.Inst.Ahat, r, 7)
		b := matrix.Random(p.Inst.Bhat, r, 8)
		var timelines []string
		for _, run := range []multiplyFn{(*Prepared).MultiplyMap, multiplyOne} {
			_, res, err := run(p, a, b, lbm.WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile == nil {
				t.Fatalf("%s/%s: no profile", r.Name(), res.Engine)
			}
			timelines = append(timelines, res.Profile.Summary())
		}
		if timelines[0] != timelines[1] {
			t.Errorf("%s: phase profiles differ\n--- map ---\n%s\n--- compiled ---\n%s",
				r.Name(), timelines[0], timelines[1])
		}
	}
}
