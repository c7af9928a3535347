package obsv

import "sync"

// CounterSet is a thread-safe registry of named int64 metrics. It is the
// obsv-layer primitive behind long-lived components (the serving layer's
// cache and admission counters): unlike a Profile, which observes one
// machine execution from a single goroutine, a CounterSet aggregates events
// from many concurrent requests over the life of a process.
//
// Names follow the same short path-segment convention as phase labels
// (docs/OBSERVABILITY.md); the serving layer's names are documented in
// docs/SERVICE.md. Monotone counters use Add; point-in-time gauges use Set.
type CounterSet struct {
	mu     sync.RWMutex
	counts map[string]int64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{counts: map[string]int64{}}
}

// Add increments the named counter by delta (negative deltas are allowed;
// gauges tracking in-flight work add +1/-1 around the work).
func (s *CounterSet) Add(name string, delta int64) {
	s.mu.Lock()
	s.counts[name] += delta
	s.mu.Unlock()
}

// Set stores an absolute gauge value under the name.
func (s *CounterSet) Set(name string, v int64) {
	s.mu.Lock()
	s.counts[name] = v
	s.mu.Unlock()
}

// Get returns the current value of the named metric (0 if never touched).
func (s *CounterSet) Get(name string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts[name]
}

// Snapshot returns a copy of every metric at one instant.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}
