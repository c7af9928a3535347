package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// storeServer builds a server whose cache is backed by a plan store over
// dir, with its own metrics set.
func storeServer(t *testing.T, dir string) (*Server, *obsv.CounterSet) {
	t.Helper()
	ms := obsv.NewCounterSet()
	st, err := planstore.Open(dir, 0, ms)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return NewServer(Config{Workers: 2, Metrics: ms, Store: st}), ms
}

// TestWarmRestartServesWithoutRecompiling is the plan store's core promise:
// a second server process (simulated here by a second Server over the same
// directory with fresh metrics) serves a structure the first one compiled
// with zero compiles and a store hit — and the identical round count, since
// rounds are a function of structure only.
func TestWarmRestartServesWithoutRecompiling(t *testing.T) {
	dir := t.TempDir()
	inst := workload.Mixed(24, 3, 9)
	r := ring.NewGFp(257)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	req := func() *MultiplyRequest {
		return &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: core.Options{Ring: r}}
	}

	s1, ms1 := storeServer(t, dir)
	resp1, err := s1.Multiply(context.Background(), req())
	if err != nil {
		t.Fatalf("cold multiply: %v", err)
	}
	s1.Close() // drains the async write-back
	if got := ms1.Get(MetricCompiles); got != 1 {
		t.Fatalf("cold process: serve/compiles = %d, want 1", got)
	}
	if got := ms1.Get(planstore.MetricWrites); got != 1 {
		t.Fatalf("cold process: store/writes = %d, want 1", got)
	}

	s2, ms2 := storeServer(t, dir)
	defer s2.Close()
	resp2, err := s2.Multiply(context.Background(), req())
	if err != nil {
		t.Fatalf("warm multiply: %v", err)
	}
	if got := ms2.Get(MetricCompiles); got != 0 {
		t.Fatalf("warm process: serve/compiles = %d, want 0", got)
	}
	if got := ms2.Get(planstore.MetricHits); got < 1 {
		t.Fatalf("warm process: store/hits = %d, want >= 1", got)
	}
	if !resp2.CacheHit {
		t.Fatalf("warm response not flagged as cache hit")
	}
	if resp2.Fingerprint != resp1.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s vs %s", resp2.Fingerprint, resp1.Fingerprint)
	}
	if !matrix.Equal(resp2.X, resp1.X) {
		t.Fatalf("warm product differs from cold product")
	}
	if resp2.Report.Rounds != resp1.Report.Rounds {
		t.Fatalf("warm rounds %d != cold rounds %d", resp2.Report.Rounds, resp1.Report.Rounds)
	}

	// Third request on the warm server: in-memory tier now, still zero
	// compiles, no second store read.
	hits := ms2.Get(planstore.MetricHits)
	if _, err := s2.Multiply(context.Background(), req()); err != nil {
		t.Fatalf("second warm multiply: %v", err)
	}
	if got := ms2.Get(MetricCompiles); got != 0 {
		t.Fatalf("memory-tier hit still compiled: serve/compiles = %d", got)
	}
	if got := ms2.Get(planstore.MetricHits); got != hits {
		t.Fatalf("memory-tier hit read the store again: store/hits %d -> %d", hits, got)
	}
}

// TestWarmRestartQuarantinesCorruptEntry: a damaged store entry must never
// be served — the server quarantines it, recompiles, still answers
// correctly, and repairs the store by writing the fresh plan back.
func TestWarmRestartQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	inst := workload.Mixed(24, 3, 10)
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 3)
	b := matrix.Random(inst.Bhat, r, 4)
	req := func() *MultiplyRequest {
		return &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: core.Options{Ring: r}}
	}

	s1, _ := storeServer(t, dir)
	resp1, err := s1.Multiply(context.Background(), req())
	if err != nil {
		t.Fatalf("cold multiply: %v", err)
	}
	s1.Close()

	// Truncate the stored entry.
	path := filepath.Join(dir, resp1.Fingerprint[:2], resp1.Fingerprint+".prep")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatalf("truncate entry: %v", err)
	}

	s2, ms2 := storeServer(t, dir)
	resp2, err := s2.Multiply(context.Background(), req())
	if err != nil {
		t.Fatalf("multiply over corrupt store: %v", err)
	}
	s2.Close()
	if !matrix.Equal(resp2.X, resp1.X) {
		t.Fatalf("product served over corrupt store differs")
	}
	if got := ms2.Get(MetricCompiles); got != 1 {
		t.Fatalf("corrupt entry not recompiled: serve/compiles = %d, want 1", got)
	}
	if got := ms2.Get(planstore.MetricQuarantined); got != 1 {
		t.Fatalf("store/quarantined = %d, want 1", got)
	}
	// The write-back repaired the store: a third process starts warm again.
	s3, ms3 := storeServer(t, dir)
	defer s3.Close()
	if _, err := s3.Multiply(context.Background(), req()); err != nil {
		t.Fatalf("multiply after repair: %v", err)
	}
	if got := ms3.Get(MetricCompiles); got != 0 {
		t.Fatalf("store not repaired by write-back: serve/compiles = %d, want 0", got)
	}
}

// TestPreparedBuildsSupportsOnlyToCompile: plan resolution asks for the
// supports only when it compiles — not on an in-memory hit, not on a store
// hit in a new process.
func TestPreparedBuildsSupportsOnlyToCompile(t *testing.T) {
	dir := t.TempDir()
	inst := workload.Mixed(24, 3, 9)
	opts := core.Options{Ring: ring.Counting{}}
	l := core.ListSupports(inst.Ahat, inst.Bhat, inst.Xhat)
	fp := l.Fingerprint(opts)
	built := 0
	supports := func() (ahat, bhat, xhat *matrix.Support, err error) {
		built++
		return inst.Ahat, inst.Bhat, inst.Xhat, nil
	}
	resolve := func(s *Server, what string, wantBuilt int, wantHit bool) {
		t.Helper()
		if _, hit, err := s.prepared(fp, l, supports, opts); err != nil || hit != wantHit || built != wantBuilt {
			t.Fatalf("%s: hit %v, %v, supports built %d times; want hit %v, built %d", what, hit, err, built, wantHit, wantBuilt)
		}
	}
	s1, _ := storeServer(t, dir)
	resolve(s1, "compile", 1, false)
	resolve(s1, "memory hit", 1, true)
	s1.Close() // drains the write-back
	s2, _ := storeServer(t, dir)
	defer s2.Close()
	resolve(s2, "store hit", 1, true)
}
