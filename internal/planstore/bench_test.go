package planstore_test

import (
	"fmt"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// BenchmarkStorePut times one Put into an unbudgeted store that already
// holds 16 or 256 entries: each op re-writes a resident entry, so the store
// keeps its size. A Put that re-listed the store would grow with it.
func BenchmarkStorePut(b *testing.B) {
	const most = 256
	plans := make([]*core.Prepared, most)
	fps := make([]string, most)
	opts := core.Options{Ring: ring.Counting{}}
	for i := range plans {
		inst := workload.Mixed(20, 3, int64(i))
		p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
		if err != nil {
			b.Fatal(err)
		}
		if fps[i], err = p.Fingerprint(); err != nil {
			b.Fatal(err)
		}
		plans[i] = p
	}
	for _, resident := range []int{16, most} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			s, err := planstore.Open(b.TempDir(), 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := range resident {
				if err := s.Put(fps[i], plans[i]); err != nil {
					b.Fatal(err)
				}
			}
			if entries, err := s.List(); err != nil || len(entries) != resident {
				b.Fatalf("store holds %d entries (%v), want %d distinct", len(entries), err, resident)
			}
			b.ResetTimer()
			for i := range b.N {
				if err := s.Put(fps[i%resident], plans[i%resident]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
