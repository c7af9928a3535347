package algo

import (
	"fmt"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// BenchmarkPreparedMultiply measures the serve-many shape both engines are
// built for: structure prepared once, multiplied repeatedly with fresh
// values. The compiled engine amortizes planning into slot-addressed arrays
// and recycles its arenas through a pool, so per-call allocation should be
// near zero; the map engine rebuilds its stores every call.
func BenchmarkPreparedMultiply(b *testing.B) {
	cases := []struct {
		name string
		mk   func(r ring.Semiring) (*Prepared, error)
		r    ring.Semiring
	}{
		{"lemma31/counting", func(r ring.Semiring) (*Prepared, error) {
			return PrepareLemma31(r, workload.Blocks(32, 4))
		}, ring.Counting{}},
		{"theorem42/real", func(r ring.Semiring) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Blocks(32, 4))
		}, ring.Real{}},
	}
	for _, c := range cases {
		p, err := c.mk(c.r)
		if err != nil {
			b.Fatal(err)
		}
		a := matrix.Random(p.Inst.Ahat, c.r, 1)
		bm := matrix.Random(p.Inst.Bhat, c.r, 2)
		for _, e := range []struct {
			name string
			run  multiplyFn
		}{{"map", (*Prepared).MultiplyMap}, {"compiled", multiplyOne}} {
			b.Run(fmt.Sprintf("%s/%s", c.name, e.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := e.run(p, a, bm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
