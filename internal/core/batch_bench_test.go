package core_test

import (
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func BenchmarkBatch16Theorem42Real(b *testing.B) {
	r := ring.Real{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 42)
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r, D: 4, Algorithm: "theorem42"})
	if err != nil {
		b.Fatal(err)
	}
	const k = 16
	as := make([]*matrix.Sparse, k)
	bs := make([]*matrix.Sparse, k)
	for l := 0; l < k; l++ {
		as[l] = matrix.Random(inst.Ahat, r, int64(2*l+1))
		bs[l] = matrix.Random(inst.Bhat, r, int64(2*l+2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prep.MultiplyBatch(as, bs, core.ExecOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiplyUS256 is the benchmark harness's engine shape: one
// multiply of a uniformly sparse n=256, d=4 structure over the counting
// ring, prepared once with auto.
func BenchmarkMultiplyUS256(b *testing.B) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	a, bm := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prep.Multiply(a, bm); err != nil {
			b.Fatal(err)
		}
	}
}
