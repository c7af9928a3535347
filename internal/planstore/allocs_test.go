package planstore_test

import (
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestGetAllocs pins what a warm Get of an n=256, d=4 counting-ring plan
// allocates: the file read into a pooled buffer, the decoded plan and the
// fingerprint that checks it.
func TestGetAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	opts := core.Options{Ring: ring.Counting{}}
	p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fp, p); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := s.Get(fp); err != nil {
			t.Fatal(err)
		}
	}
	get()
	allocs := testing.AllocsPerRun(20, get)
	t.Logf("warm Get at n=256: %.1f allocations", allocs)
	if allocs > getAllocs {
		t.Fatalf("warm Get at n=256: %.1f allocations, want at most %d", allocs, getAllocs)
	}
}

// getAllocs bounds TestGetAllocs, which reads 77.
const getAllocs = 78
