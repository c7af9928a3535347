package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// realPlan compiles an actual prepared plan (nonzero CompiledBytes) for a
// blocks structure of the given size — the byte-budget tests need entries
// with real, distinct costs, which stubs cannot fake.
func realPlan(t *testing.T, n int) (string, *core.Prepared) {
	t.Helper()
	inst := workload.Blocks(n, 4)
	opts := core.Options{Ring: ring.Counting{}}
	fp, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prep.CompiledBytes() <= 0 {
		t.Fatalf("plan for n=%d has no compiled size", n)
	}
	return fp, prep
}

// TestCacheByteBudgetEvictionOrder drives mixed hit/miss traffic through a
// byte-bounded cache: the budget admits two plans; after a hit refreshes
// the older one, inserting a third must evict the least recently *used*
// entry (not the oldest inserted), and the byte gauge must track exactly.
func TestCacheByteBudgetEvictionOrder(t *testing.T) {
	fp1, p1 := realPlan(t, 16)
	fp2, p2 := realPlan(t, 24)
	fp3, p3 := realPlan(t, 32)

	m := obsv.NewCounterSet()
	// Budget fits p1+p2 but not a third plan on top.
	budget := p1.CompiledBytes() + p2.CompiledBytes()
	c := NewCacheBytes(16, budget, m)

	get := func(fp string, p *core.Prepared) {
		t.Helper()
		if _, _, err := c.Get(fp, nil, core.Options{}, func() (*core.Prepared, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get(fp1, p1) // miss
	get(fp2, p2) // miss: bytes = budget exactly, nothing evicted
	if c.Len() != 2 || c.Bytes() != budget {
		t.Fatalf("after two inserts: len=%d bytes=%d, want 2/%d", c.Len(), c.Bytes(), budget)
	}
	get(fp1, p1) // hit: refreshes fp1, so fp2 is now least recently used
	get(fp3, p3) // miss: over budget, evicts fp2 (and fp1 too if still over)

	if c.Contains(fp2) {
		t.Error("fp2 survived eviction despite being least recently used")
	}
	if !c.Contains(fp3) {
		t.Error("the newly inserted plan was evicted")
	}
	if got := c.Bytes(); got > budget && c.Len() > 1 {
		t.Errorf("bytes=%d over budget %d with %d entries", got, budget, c.Len())
	}
	snap := m.Snapshot()
	if snap[MetricCacheEvictions] < 1 {
		t.Errorf("evictions=%d, want >= 1", snap[MetricCacheEvictions])
	}
	if snap[MetricCacheBytes] != c.Bytes() {
		t.Errorf("byte gauge %d out of sync with cache %d", snap[MetricCacheBytes], c.Bytes())
	}
}

// TestCacheByteBudgetOversizedEntry pins the documented corner: a single
// plan larger than the whole budget is still cached (an empty cache serves
// nothing), and admitting a second entry brings the total back under
// budget by evicting down to one.
func TestCacheByteBudgetOversizedEntry(t *testing.T) {
	fp1, p1 := realPlan(t, 32)
	fp2, p2 := realPlan(t, 16)
	c := NewCacheBytes(16, p1.CompiledBytes()/2, nil)
	c.Get(fp1, nil, core.Options{}, func() (*core.Prepared, error) { return p1, nil })
	if !c.Contains(fp1) || c.Len() != 1 {
		t.Fatal("oversized single entry was not cached")
	}
	c.Get(fp2, nil, core.Options{}, func() (*core.Prepared, error) { return p2, nil })
	if c.Len() != 1 {
		t.Errorf("len=%d after second insert over budget, want 1", c.Len())
	}
	if c.Contains(fp1) {
		t.Error("LRU entry survived while over budget")
	}
}

// TestCacheBytesZeroDisablesBudget verifies the `-cache-mb 0` path: with
// maxBytes 0 the byte bound is off, so plans accumulate to the count bound
// no matter their size — the zero value must mean "unbounded bytes", not
// "no space".
func TestCacheBytesZeroDisablesBudget(t *testing.T) {
	fp1, p1 := realPlan(t, 16)
	fp2, p2 := realPlan(t, 24)
	fp3, p3 := realPlan(t, 32)
	m := obsv.NewCounterSet()
	c := NewCacheBytes(16, 0, m)
	for _, e := range []struct {
		fp string
		p  *core.Prepared
	}{{fp1, p1}, {fp2, p2}, {fp3, p3}} {
		e := e
		c.Get(e.fp, nil, core.Options{}, func() (*core.Prepared, error) { return e.p, nil })
	}
	if c.Len() != 3 {
		t.Fatalf("len=%d, want 3 (byte bound disabled)", c.Len())
	}
	if m.Snapshot()[MetricCacheEvictions] != 0 {
		t.Error("byte bound evicted entries despite being disabled")
	}
	if want := p1.CompiledBytes() + p2.CompiledBytes() + p3.CompiledBytes(); c.Bytes() != want {
		t.Errorf("bytes=%d, want %d (accounting still runs when the bound is off)", c.Bytes(), want)
	}
}

// TestCacheByteBudgetSingleflight: k concurrent requests missing on the
// same fingerprint in a byte-bounded cache must collapse into exactly one
// compilation, one cached entry, and one entry's worth of bytes.
func TestCacheByteBudgetSingleflight(t *testing.T) {
	fp, p := realPlan(t, 16)
	c := NewCacheBytes(16, 4*p.CompiledBytes(), obsv.NewCounterSet())

	const k = 8
	var compiles atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.Get(fp, nil, core.Options{}, func() (*core.Prepared, error) {
				compiles.Add(1)
				<-gate // hold the compile so every other request joins it
				return p, nil
			})
			if err != nil || got != p {
				t.Errorf("Get: prep=%p err=%v", got, err)
			}
		}()
	}
	// Let the requests pile up on the flight before releasing the compile.
	for compiles.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("%d compilations for %d concurrent misses, want 1", n, k)
	}
	if c.Len() != 1 || c.Bytes() != p.CompiledBytes() {
		t.Errorf("len=%d bytes=%d, want 1 entry costing %d", c.Len(), c.Bytes(), p.CompiledBytes())
	}
}
