package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestStoreHitAllocs pins what one /v1/multiply served from the plan store
// allocates, the handler's request and recorder included: a cache of one
// plan and two stored n=256, d=4 structures requested in turn, so every
// request misses memory, decodes its plan from disk and runs it, and none
// compiles.
func TestStoreHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
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
	defer srv.Close()
	h := NewHandler(srv)
	next := 0
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(bodies[next%2])))
		next++
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	serve()
	allocs := testing.AllocsPerRun(20, serve)
	if m := srv.Metrics(); m[MetricCompiles] != 0 || m[MetricCacheHits] != 0 || m[planstore.MetricHits] != int64(next) {
		t.Fatalf("compiles %d, cache hits %d, store hits %d; want 0, 0, %d", m[MetricCompiles], m[MetricCacheHits], m[planstore.MetricHits], next)
	}
	t.Logf("store hit at n=256: %.1f allocations", allocs)
	if allocs > storeHitAllocs {
		t.Fatalf("store hit at n=256: %.1f allocations, want at most %d", allocs, storeHitAllocs)
	}
}

// storeHitAllocs bounds TestStoreHitAllocs, which reads 183 or 184: the
// lane's hand-off between goroutines varies by an allocation.
const storeHitAllocs = 187
