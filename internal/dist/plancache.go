package dist

import (
	"container/list"
	"sync"

	"lbmm/internal/core"
)

// Counter names the worker charges to each job's counter set for its plan
// cache, surfaced in the coordinator's run report (dist.RunResult.Counters
// and `lbmm run` JSON).
const (
	// CounterPlanHits counts jobs whose prepared plan was served from the
	// worker's fingerprint-keyed cache, skipping the envelope decode.
	CounterPlanHits = "dist/plan_hits"
	// CounterPlanMisses counts jobs that had to decode the shipped envelope.
	CounterPlanMisses = "dist/plan_misses"
)

// planCache is a worker-wide LRU of decoded core.Prepared plans keyed by
// their content fingerprint. A prepared plan is immutable and safe for
// concurrent use, so one decoded instance serves every job that names the
// same fingerprint — repeat jobs skip decoding and re-validating the
// envelope entirely.
type planCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used; values are *planEntry
	idx map[string]*list.Element
}

type planEntry struct {
	fp   string
	prep *core.Prepared
}

// newPlanCache builds a cache holding at most max plans; max <= 0 disables
// caching (every lookup misses, nothing is stored).
func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), idx: make(map[string]*list.Element)}
}

// get returns the cached plan for fp and marks it most recently used.
func (c *planCache) get(fp string) (*core.Prepared, bool) {
	if c.max <= 0 || fp == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[fp]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).prep, true
}

// put stores a decoded plan under fp, evicting the least recently used
// entry past the cache bound.
func (c *planCache) put(fp string, prep *core.Prepared) {
	if c.max <= 0 || fp == "" || prep == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[fp]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planEntry).prep = prep
		return
	}
	c.idx[fp] = c.ll.PushFront(&planEntry{fp: fp, prep: prep})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.idx, el.Value.(*planEntry).fp)
	}
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
