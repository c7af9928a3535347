package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// storeHits sets up a cache of one plan in front of a plan store holding two
// n=256, d=4 structures, and returns a func that serves one /v1/multiply
// for them in turn, so every request misses memory, decodes its plan from
// disk and runs it, and none compiles. check confirms that afterwards.
func storeHits(t *testing.T) (serve, check func()) {
	dir := t.TempDir()
	r := ring.Counting{}
	var bodies [2][]byte
	warm, _ := storeServer(t, dir)
	for k := range bodies {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, int64(k+1))
		if _, err := warm.Prepare(context.Background(), &PrepareRequest{
			Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: core.Options{Ring: r},
		}); err != nil {
			t.Fatal(err)
		}
		var err error
		bodies[k], err = json.Marshal(&wireMultiplyRequest{
			N: inst.N, Ring: "counting", Xhat: supportPositions(inst.Xhat),
			A: sparseEntries(matrix.Random(inst.Ahat, r, int64(2*k+1))), B: sparseEntries(matrix.Random(inst.Bhat, r, int64(2*k+2))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	warm.Close() // drains the write-backs

	ms := obsv.NewCounterSet()
	st, err := planstore.Open(dir, 0, ms)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{CacheSize: 1, Metrics: ms, Store: st})
	t.Cleanup(srv.Close)
	h := NewHandler(srv)
	next := 0
	serve = func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(bodies[next%2])))
		next++
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	check = func() {
		if m := srv.Metrics(); m[MetricCompiles] != 0 || m[MetricCacheHits] != 0 || m[planstore.MetricHits] != int64(next) {
			t.Fatalf("compiles %d, cache hits %d, store hits %d; want 0, 0, %d", m[MetricCompiles], m[MetricCacheHits], m[planstore.MetricHits], next)
		}
	}
	return serve, check
}

// TestStoreHitAllocs pins how many allocations one /v1/multiply served from
// the plan store makes, the handler's request and recorder included.
func TestStoreHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	serve, check := storeHits(t)
	serve()
	serve()
	allocs := testing.AllocsPerRun(20, serve)
	check()
	t.Logf("store hit at n=256: %.1f allocations", allocs)
	if allocs > storeHitAllocs {
		t.Fatalf("store hit at n=256: %.1f allocations, want at most %d", allocs, storeHitAllocs)
	}
}

// storeHitAllocs bounds TestStoreHitAllocs, which reads 118: the lane's
// hand-off between goroutines varies by an allocation.
const storeHitAllocs = 121

// TestStoreHitAllocsInBytes pins how many bytes one /v1/multiply served from
// the plan store allocates, the handler's request and recorder included:
// the mean of TotalAlloc over 200 warm store hits. Bytes, not allocation
// counts, are what the edge_cold benchmark workload reports per lane.
func TestStoreHitAllocsInBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	serve, check := storeHits(t)
	serve()
	serve()
	const hits = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		serve()
	}
	runtime.ReadMemStats(&after)
	check()
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
	t.Logf("store hit at n=256: %.0f bytes", perHit)
	if perHit > storeHitBytes {
		t.Fatalf("store hit at n=256: %.0f bytes, want at most %d", perHit, storeHitBytes)
	}
}

// storeHitBytes bounds TestStoreHitAllocsInBytes at 5% over the 52.4k to
// 53.0k bytes it reads.
const storeHitBytes = 55650
