package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
)

// compileStub returns a distinct (empty) Prepared so tests can tell plans
// apart by pointer without paying real compilations.
func compileStub() (*core.Prepared, error) { return &core.Prepared{}, nil }

func TestCacheHitMissCounting(t *testing.T) {
	m := obsv.NewCounterSet()
	c := NewCache(4, m)

	p1, hit, err := c.Get("a", compileStub)
	if err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v, want miss", hit, err)
	}
	p2, hit, err := c.Get("a", compileStub)
	if err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v, want hit", hit, err)
	}
	if p1 != p2 {
		t.Error("hit returned a different plan than the one compiled")
	}
	snap := m.Snapshot()
	if snap[MetricCacheHits] != 1 || snap[MetricCacheMisses] != 1 {
		t.Errorf("counters = %v, want 1 hit / 1 miss", snap)
	}
	if snap[MetricCacheSize] != 1 {
		t.Errorf("size gauge = %d, want 1", snap[MetricCacheSize])
	}
}

// TestCacheLRUEviction fills a capacity-3 cache, touches the oldest entry to
// refresh it, inserts one more, and checks that the least recently *used*
// (not least recently inserted) key fell out.
func TestCacheLRUEviction(t *testing.T) {
	m := obsv.NewCounterSet()
	c := NewCache(3, m)
	for _, k := range []string{"a", "b", "c"} {
		c.Get(k, compileStub)
	}
	c.Get("a", compileStub) // hit: refreshes a; LRU order now a,c,b
	c.Get("d", compileStub) // evicts b

	if c.Contains("b") {
		t.Error("b should have been evicted (least recently used)")
	}
	want := []string{"d", "a", "c"}
	got := c.Keys()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Keys() = %v, want %v", got, want)
	}
	snap := m.Snapshot()
	if snap[MetricCacheEvictions] != 1 {
		t.Errorf("evictions = %d, want 1", snap[MetricCacheEvictions])
	}
	if snap[MetricCacheSize] != 3 || c.Len() != 3 {
		t.Errorf("size = %d/%d, want 3", snap[MetricCacheSize], c.Len())
	}
}

// TestCacheSingleflight launches N concurrent misses on one fingerprint and
// requires exactly one compilation; everyone gets the same plan, and the
// joiners are counted as joins, not extra misses.
func TestCacheSingleflight(t *testing.T) {
	const n = 16
	m := obsv.NewCounterSet()
	c := NewCache(4, m)

	var compiles atomic.Int64
	gate := make(chan struct{})
	compile := func() (*core.Prepared, error) {
		compiles.Add(1)
		<-gate // hold every concurrent Get in the inflight path
		return &core.Prepared{}, nil
	}

	var wg sync.WaitGroup
	plans := make([]*core.Prepared, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, err := c.Get("same", compile)
			if err != nil || hit {
				t.Errorf("goroutine %d: hit=%v err=%v, want inflight miss", i, hit, err)
			}
			plans[i] = p
		}(i)
	}
	// The gate opens only once every other Get has joined the flight: a Get
	// that had merely started could still arrive after the compile finished
	// and read a hit.
	waitFor(t, func() bool { return m.Get(MetricCacheJoins) == n-1 })
	close(gate)
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d compilations for %d concurrent misses, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan", i)
		}
	}
	snap := m.Snapshot()
	if snap[MetricCacheMisses] != 1 {
		t.Errorf("misses = %d, want 1", snap[MetricCacheMisses])
	}
	if snap[MetricCacheJoins] != n-1 {
		t.Errorf("joins = %d, want %d", snap[MetricCacheJoins], n-1)
	}
	if snap[MetricCacheInflight] != 0 {
		t.Errorf("inflight gauge = %d after settle, want 0", snap[MetricCacheInflight])
	}
}

// TestCacheCompileError checks an error reaches every waiter and nothing is
// cached, so the next Get retries the compile.
func TestCacheCompileError(t *testing.T) {
	c := NewCache(4, nil)
	boom := errors.New("boom")
	fail := func() (*core.Prepared, error) { return nil, boom }

	if _, _, err := c.Get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains("k") || c.Len() != 0 {
		t.Error("failed compile was cached")
	}
	if _, hit, err := c.Get("k", compileStub); err != nil || hit {
		t.Errorf("retry after error: hit=%v err=%v, want fresh miss", hit, err)
	}
}
