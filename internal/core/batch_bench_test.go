package core_test

import (
	"runtime"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/graph"
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

// BenchmarkPrepareUS256 prepares BenchmarkMultiplyUS256's structure with
// the trivial algorithm named: layout, one plan and its lowering, with no
// other candidate priced.
func BenchmarkPrepareUS256(b *testing.B) {
	benchmarkPrepare(b, workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1), "trivial")
}

// BenchmarkPrepareAutoUS256 prepares the same structure with auto, the
// serving default: layout, the trivial candidate planned and priced, Lemma
// 3.1 and Theorem 4.2 priced (Lemma 3.1 from counts, never planned unless
// kept), and the kept one coloured and lowered. This is what a plan cache
// miss with no plan store pays.
func BenchmarkPrepareAutoUS256(b *testing.B) {
	benchmarkPrepare(b, workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1), "auto")
}

// BenchmarkPrepareAutoMixed256 prepares Mixed(256, 8, 1) with auto: a
// structure with hot rows, whose Lemma 3.1 candidate has input routing far
// larger than its trivial plan's one fetch, so pricing that candidate by
// planning it would dominate the Prepare.
func BenchmarkPrepareAutoMixed256(b *testing.B) {
	benchmarkPrepare(b, workload.Mixed(256, 8, 1), "auto")
}

// BenchmarkPrepareAutoBlocks64 prepares Blocks(64, 8) with auto: it keeps
// the trivial plan, but Theorem 4.2's candidate is planned in full to be
// priced, cube batches lowered through vnet included.
func BenchmarkPrepareAutoBlocks64(b *testing.B) {
	benchmarkPrepare(b, workload.Blocks(64, 8), "auto")
}

// BenchmarkPrepareMixed256 prepares Mixed(256, 8, 1) with the trivial
// algorithm named: its one fetch h-relation coloured by routing.Schedule,
// the plan auto keeps there, with no other candidate priced.
func BenchmarkPrepareMixed256(b *testing.B) {
	benchmarkPrepare(b, workload.Mixed(256, 8, 1), "trivial")
}

// BenchmarkPrepareAutoBench64 prepares, with auto, the 64 structures the
// benchmark's engine_scalar workload sets up (US n=256, d=4, seeds 1-64):
// the Prepare half of its setup_s, without the warm multiply, the harness
// or the machine's phases around it. It reports ns, allocations and bytes
// per structure.
func BenchmarkPrepareAutoBench64(b *testing.B) {
	const structures = 64
	insts := make([]*graph.Instance, structures)
	for k := range insts {
		insts[k] = workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, int64(k+1))
	}
	opts := core.Options{Ring: ring.Counting{}, D: 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			if _, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * structures)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/structure")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/structure")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/structure")
}

func benchmarkPrepare(b *testing.B, inst *graph.Instance, alg string) {
	opts := core.Options{Ring: ring.Counting{}, D: inst.D, Algorithm: alg}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts); err != nil {
			b.Fatal(err)
		}
	}
}
