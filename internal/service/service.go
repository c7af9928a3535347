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
//     core.Fingerprint of (Â, B̂, X̂, ring, algorithm, d) and indexed by the
//     shape of their structure, with bounded-size LRU eviction and
//     singleflight deduplication so N concurrent requests for the same new
//     structure cost one compilation;
//   - a Server with a bounded worker pool and admission control (queue
//     depth limit, per-request deadline, typed load shedding via
//     ErrOverloaded);
//   - one request pipeline (pipeline.go) behind Multiply, MultiplySubmit
//     and the batch route: list, admit, resolve the plan, park the lane in an
//     always-present coalescer, run the launched group under the fault
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
// without coordination. A value request lists its structure once
// (core.Listing) and finds its plan by comparison: the cache indexes its
// plans by a per-process hash of their structure, and a candidate serves
// only once its supports equal the listing. SHA-256 runs on a memory miss
// only, where the listing's fingerprint keys the store and the compile, and
// supports are built only when a plan must be compiled.
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
	"hash/maphash"
	"slices"
	"sync"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
)

// Cache is a bounded, content-addressed store of prepared plans. It is safe
// for concurrent use. Lookups of a cached fingerprint are O(1), and so are
// lookups of a listed structure (Find) up to comparing it with the
// candidate's supports; misses run the caller-supplied compile function
// outside the cache lock, and concurrent misses on the same fingerprint
// collapse into a single compilation whose result (or error) every waiter
// receives.
type Cache struct {
	capacity int
	maxBytes int64
	metrics  *obsv.CounterSet
	// shape hashes a listed structure under its options for the shape
	// index; an entry is indexed under the shape of the listing Get was
	// handed with it.
	shape func(*core.Listing, core.Options) uint64

	mu       sync.Mutex
	entries  map[string]*list.Element   // fingerprint → lru element
	shapes   map[uint64][]*list.Element // shape hash → lru elements
	lru      *list.List                 // front = most recently used
	bytes    int64                      // sum of cached entries' compiled sizes
	inflight map[string]*flight
}

type cacheEntry struct {
	key  string
	prep *core.Prepared
	cost int64
	// shape is the entry's key in the shape index, if listed: a plan Get
	// was handed no listing for is found by fingerprint only.
	shape  uint64
	listed bool
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
	seed := maphash.MakeSeed()
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		metrics:  metrics,
		shape:    func(l *core.Listing, opts core.Options) uint64 { return l.Hash(seed, opts) },
		entries:  map[string]*list.Element{},
		shapes:   map[uint64][]*list.Element{},
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
//
// l and opts are the structure and options the fingerprint was taken of: a
// compiled plan is indexed under their shape for Find, read before Get
// returns and not kept. The index is the caller's word, not the plan's, and
// needs no more: Find serves a candidate only once Prepared.Matches confirms
// it, so a listing that is not the plan's costs a miss, never a wrong plan.
// A nil l leaves the plan found by fingerprint only.
func (c *Cache) Get(fingerprint string, l *core.Listing, opts core.Options, compile func() (*core.Prepared, error)) (*core.Prepared, bool, error) {
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
	ent := &cacheEntry{key: fingerprint, prep: f.prep}
	if f.err == nil && l != nil {
		ent.shape, ent.listed = c.shape(l, opts), true
	}

	c.mu.Lock()
	delete(c.inflight, fingerprint)
	c.metrics.Add(MetricCacheInflight, -1)
	if f.err == nil {
		c.insertLocked(ent)
	}
	c.mu.Unlock()
	close(f.done)
	return f.prep, false, f.err
}

// Find returns the cached plan prepared for exactly the structure l lists
// under opts, with its fingerprint, and counts the hit as Get does; it
// reports false, counting nothing, when no cached plan is. The shape index
// names the candidates and comparing each one's supports with the listing
// (core.Prepared.Matches) decides, so no fingerprint is computed and a
// shape-hash collision is a miss, never a wrong plan.
func (c *Cache) Find(l *core.Listing, opts core.Options) (*core.Prepared, string, bool) {
	h := c.shape(l, opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.shapes[h] {
		if ent := e.Value.(*cacheEntry); ent.prep.Matches(l, opts) {
			c.lru.MoveToFront(e)
			c.metrics.Add(MetricCacheHits, 1)
			return ent.prep, ent.key, true
		}
	}
	return nil, "", false
}

// unindexLocked takes e out of the shape index.
func (c *Cache) unindexLocked(shape uint64, e *list.Element) {
	if rest := slices.DeleteFunc(c.shapes[shape], func(o *list.Element) bool { return o == e }); len(rest) > 0 {
		c.shapes[shape] = rest
	} else {
		delete(c.shapes, shape)
	}
}

// Contains reports whether the fingerprint is cached, without touching the
// LRU order.
func (c *Cache) Contains(fingerprint string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fingerprint]
	return ok
}

func (c *Cache) insertLocked(ent *cacheEntry) {
	ent.cost = ent.prep.CompiledBytes()
	if e, ok := c.entries[ent.key]; ok {
		// A racing compile of the same key finished first; keep the newer
		// plan and refresh recency. Same key, same structure: the shape
		// index stands.
		old := e.Value.(*cacheEntry)
		c.bytes += ent.cost - old.cost
		old.prep = ent.prep
		old.cost = ent.cost
		c.lru.MoveToFront(e)
		c.metrics.Set(MetricCacheBytes, c.bytes)
		return
	}
	e := c.lru.PushFront(ent)
	c.entries[ent.key] = e
	if ent.listed {
		c.shapes[ent.shape] = append(c.shapes[ent.shape], e)
	}
	c.bytes += ent.cost
	for c.lru.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.entries, ent.key)
		if ent.listed {
			c.unindexLocked(ent.shape, oldest)
		}
		c.bytes -= ent.cost
		c.metrics.Add(MetricCacheEvictions, 1)
	}
	c.metrics.Set(MetricCacheSize, int64(c.lru.Len()))
	c.metrics.Set(MetricCacheBytes, c.bytes)
}
