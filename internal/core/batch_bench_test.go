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
