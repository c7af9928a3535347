package dist

import (
	"sync"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/ring"
)

// BenchmarkMeshMultiply is one multiply by 3 ranks over a kept-open
// localhost mesh — the loop of the benchmark's mesh_tcp workload, for
// profiling the round path (go test -bench MeshMultiply -cpuprofile …).
func BenchmarkMeshMultiply(b *testing.B) {
	prep, a, bm, _ := prepCase(b, "theorem42", ring.Counting{}, 256, 4)
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
