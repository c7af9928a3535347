package dist

import (
	"sync"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// BenchmarkMeshMultiply is one multiply by 3 ranks over a kept-open
// localhost mesh — the loop of the benchmark's mesh_tcp workload, for
// profiling the round path (go test -bench MeshMultiply -cpuprofile …). It
// runs what mesh_tcp runs: the auto plan of a US n=256, d=4 structure over
// the counting ring.
func BenchmarkMeshMultiply(b *testing.B) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r})
	if err != nil {
		b.Fatal(err)
	}
	a, bm := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	meshes, stop, err := NewLocalMesh(3)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for rk := range meshes {
			wg.Add(1)
			go func(rk int) {
				defer wg.Done()
				if _, _, err := prep.MultiplyOpts(a, bm, core.ExecOpts{Transport: meshes[rk]}); err != nil {
					b.Error(err)
				}
			}(rk)
		}
		wg.Wait()
	}
}
