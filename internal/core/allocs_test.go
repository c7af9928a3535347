package core

import (
	"slices"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestWarmMultiplyAllocs pins what a warm run of a prepared plan allocates
// at n=256, d=4 (BenchmarkMultiplyUS256's structure), the executor coming
// from its pool. MultiplyValues into caller buffers allocates its report
// only: the Result, the core.Report around it and the RoundBytes copy.
// Multiply adds the product matrix and the one-lane batch around its
// operands. Neither copies per-node loads, which are NodeLoads, nor
// allocates to configure the pooled executor.
func TestWarmMultiplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop executors")
	}
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	as, bs := [][]ring.Value{listed(a, inst.Ahat)}, [][]ring.Value{listed(b, inst.Bhat)}
	xs := [][]ring.Value{make([]ring.Value, inst.Xhat.NNZ)}
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"MultiplyValues", warmValuesAllocs, func() error {
			_, err := prep.MultiplyValues(as, bs, xs, ExecOpts{})
			return err
		}},
		{"Multiply", warmMultiplyAllocs, func() error {
			_, _, err := prep.Multiply(a, b)
			return err
		}},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("warm %s at n=256: %.1f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("warm %s at n=256: %.1f allocations, want at most %v", tc.name, allocs, tc.max)
		}
	}
	want, _, err := prep.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := listed(want, inst.Xhat); !slices.Equal(got, xs[0]) {
		t.Fatal("MultiplyValues wrote a product other than Multiply's")
	}
}

// The bounds of TestWarmMultiplyAllocs.
const (
	warmValuesAllocs   = 3
	warmMultiplyAllocs = 9
)

// listed returns m's values at the positions of sup in row-major order, a
// position m does not hold reading as zero.
func listed(m *matrix.Sparse, sup *matrix.Support) []ring.Value {
	var vals []ring.Value
	for i, row := range sup.Rows {
		for _, j := range row {
			vals = append(vals, m.Get(i, int(j)))
		}
	}
	return vals
}
