// Package service is the serving layer of the repository: it turns the
// compile-once/serve-many shape of the supported low-bandwidth model into a
// long-lived, concurrent, observable system.
//
// The supported model splits every multiplication into free
// structure-dependent preprocessing (core.Prepare — expensive on the host)
// and a run-time value-carrying execution (Prepared.Multiply — the part
// whose round count the paper bounds). An inference-style serving stack has
// exactly this shape, so the layer consists of:
//
//   - a content-addressed plan cache (Cache): prepared plans keyed by the
//     core.Fingerprint of (Â, B̂, X̂, ring, algorithm, d), with bounded-size
//     LRU eviction and singleflight deduplication so N concurrent requests
//     for the same new structure cost one compilation;
//   - a Server with a bounded worker pool and admission control (queue
//     depth limit, per-request deadline, typed load shedding via
//     ErrOverloaded);
//   - one request pipeline (pipeline.go) behind Multiply, MultiplySubmit
//     and MultiplyBatch: validate, admit, resolve the plan, park the lane in
//     an always-present coalescer, run the launched group under the fault
//     policy, deliver per lane;
//   - an optional persistent tier (Config.Store, internal/planstore): on a
//     memory miss the fingerprint is looked up on disk before compiling,
//     so a restarted process serves previously-compiled structures without
//     recompiling (docs/PLANSTORE.md);
//   - an HTTP/JSON front end (NewHandler) speaking /v1/multiply,
//     /v1/prepare, /v1/classify, /healthz and /metrics, used by the
//     `lbmm serve` subcommand.
//
// Fingerprints are stable content addresses: core.Fingerprint hashes a
// canonical serialization of the structure, ring, normalized algorithm and
// resolved d, independent of construction order, process or machine — which
// is what makes both cache tiers (and any future shared store) coherent
// without coordination.
//
// Lock ordering: the Cache's mutex is the only lock in this package held
// across another component's calls, and compile functions run *outside* it
// (singleflight waiters block on a channel, not the lock). The plan store
// has its own internal mutex and never calls back into the service, so no
// lock cycle exists between the tiers.
//
// All service counters are published through an obsv.CounterSet (the PR-1
// observability layer); names are documented in docs/SERVICE.md.
package service

import (
	"container/list"
	"sync"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
)

// Cache is a bounded, content-addressed store of prepared plans. It is safe
// for concurrent use. Lookups of a cached fingerprint are O(1); misses run
// the caller-supplied compile function outside the cache lock, and
// concurrent misses on the same fingerprint collapse into a single
// compilation whose result (or error) every waiter receives.
type Cache struct {
	capacity int
	maxBytes int64
	metrics  *obsv.CounterSet

	mu       sync.Mutex
	entries  map[string]*list.Element // fingerprint → lru element
	lru      *list.List               // front = most recently used
	bytes    int64                    // sum of cached entries' compiled sizes
	inflight map[string]*flight
}

type cacheEntry struct {
	key  string
	prep *core.Prepared
	cost int64
}

// flight is one in-progress compilation; waiters block on done.
type flight struct {
	done chan struct{}
	prep *core.Prepared
	err  error
}

// Counter names published by the cache.
const (
	MetricCacheHits      = "cache/hits"
	MetricCacheMisses    = "cache/misses"
	MetricCacheJoins     = "cache/joins" // waited on another request's compile
	MetricCacheEvictions = "cache/evictions"
	MetricCacheSize      = "cache/size"     // gauge
	MetricCacheBytes     = "cache/bytes"    // gauge: total compiled size cached
	MetricCacheInflight  = "cache/inflight" // gauge
)

// NewCache returns a cache holding at most capacity prepared plans
// (capacity < 1 is treated as 1). Metrics may be nil to disable counting.
func NewCache(capacity int, metrics *obsv.CounterSet) *Cache {
	return NewCacheBytes(capacity, 0, metrics)
}

// NewCacheBytes returns a cache bounded by an entry count and, when
// maxBytes > 0, by the total compiled size of the cached plans
// (core.Prepared.CompiledBytes) — the LRU cost model that matches what a
// cached entry actually pins in memory. A single entry larger than maxBytes
// is still cached (an empty cache serves nothing); eviction brings the
// total back under budget as soon as a second entry arrives.
func NewCacheBytes(capacity int, maxBytes int64, metrics *obsv.CounterSet) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if metrics == nil {
		metrics = obsv.NewCounterSet()
	}
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		metrics:  metrics,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
}

// Bytes returns the total compiled size of the cached plans.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Keys returns the cached fingerprints from most to least recently used
// (test and introspection helper).
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*cacheEntry).key)
	}
	return out
}

// Get returns the prepared plan for the fingerprint, compiling it with
// compile on a miss. The second result reports whether the plan came from
// the cache (a request that joined another request's in-flight compilation
// counts as a miss: no ready plan existed when it arrived). Compile errors
// are returned to every waiter and nothing is cached.
func (c *Cache) Get(fingerprint string, compile func() (*core.Prepared, error)) (*core.Prepared, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[fingerprint]; ok {
		c.lru.MoveToFront(e)
		c.metrics.Add(MetricCacheHits, 1)
		prep := e.Value.(*cacheEntry).prep
		c.mu.Unlock()
		return prep, true, nil
	}
	if f, ok := c.inflight[fingerprint]; ok {
		c.metrics.Add(MetricCacheJoins, 1)
		c.mu.Unlock()
		<-f.done
		return f.prep, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fingerprint] = f
	c.metrics.Add(MetricCacheMisses, 1)
	c.metrics.Add(MetricCacheInflight, 1)
	c.mu.Unlock()

	f.prep, f.err = compile()

	c.mu.Lock()
	delete(c.inflight, fingerprint)
	c.metrics.Add(MetricCacheInflight, -1)
	if f.err == nil {
		c.insertLocked(fingerprint, f.prep)
	}
	c.mu.Unlock()
	close(f.done)
	return f.prep, false, f.err
}

// Contains reports whether the fingerprint is cached, without touching the
// LRU order.
func (c *Cache) Contains(fingerprint string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fingerprint]
	return ok
}

func (c *Cache) insertLocked(key string, prep *core.Prepared) {
	cost := prep.CompiledBytes()
	if e, ok := c.entries[key]; ok {
		// A racing compile of the same key finished first; keep the newer
		// plan and refresh recency.
		ent := e.Value.(*cacheEntry)
		c.bytes += cost - ent.cost
		ent.prep = prep
		ent.cost = cost
		c.lru.MoveToFront(e)
		c.metrics.Set(MetricCacheBytes, c.bytes)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, prep: prep, cost: cost})
	c.bytes += cost
	for c.lru.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.entries, ent.key)
		c.bytes -= ent.cost
		c.metrics.Add(MetricCacheEvictions, 1)
	}
	c.metrics.Set(MetricCacheSize, int64(c.lru.Len()))
	c.metrics.Set(MetricCacheBytes, c.bytes)
}
