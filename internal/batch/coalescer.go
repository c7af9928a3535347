// Package batch implements dynamic request coalescing for the serving
// layer: in-flight multiplies that share one prepared structure (same
// core.Fingerprint) are grouped into lanes of a single batched run, so the
// compiled engine walks its instruction stream once for the whole group.
//
// The policy is the classic max-batch-size + max-delay pair from
// continuous-batching inference servers: a request waits at most MaxDelay
// for lane-mates, and a group launches early the moment it reaches
// MaxBatch. Grouping is by an opaque string key — the batcher knows nothing
// about plans or matrices, which keeps it independently testable.
package batch

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close: the batcher is draining and
// accepts no new work.
var ErrClosed = errors.New("batch: coalescer closed")

// Reason says why a group launched. Serving metrics split launches by
// reason: a fleet that only ever launches on Timeout with one lane is
// paying the coalesce delay for nothing.
type Reason string

const (
	// ReasonFull: the group hit MaxBatch lanes.
	ReasonFull Reason = "full"
	// ReasonTimeout: the group's oldest request waited MaxDelay.
	ReasonTimeout Reason = "timeout"
	// ReasonImmediate: batching is effectively off (MaxBatch <= 1 or
	// MaxDelay <= 0), so every submission launches alone.
	ReasonImmediate Reason = "immediate"
	// ReasonFlush: Close drained the group.
	ReasonFlush Reason = "flush"
	// ReasonShrink: a policy decision dropped the group's lane cap below the
	// lanes it already held, launching the group at that arrival. The launch
	// is policy-driven, not demand-driven — feedback consumers must not read
	// it as evidence the key filled a batch the way ReasonFull is.
	ReasonShrink Reason = "shrink"
	// ReasonDrain: the submitter of every item in the group called Launch
	// because it holds no further lane for the key — a streaming session
	// that has read every byte it was sent. Like ReasonShrink it is
	// caller-driven, not demand evidence.
	ReasonDrain Reason = "drain"
)

// Policy is one launch decision: the lane cap and delay window governing a
// key right now. MaxBatch <= 1 or MaxDelay <= 0 means launch immediately.
type Policy struct {
	MaxBatch int
	MaxDelay time.Duration
}

// Config tunes a Coalescer.
type Config struct {
	// MaxBatch is the lane cap per group; a group launches the moment it
	// holds this many items. Values <= 1 disable coalescing (every item
	// launches immediately, alone).
	MaxBatch int
	// MaxDelay bounds how long the first item of a group waits for
	// lane-mates before the group launches anyway. Values <= 0 disable
	// coalescing.
	MaxDelay time.Duration
	// Decide, when non-nil, is consulted on every Submit and overrides the
	// static MaxBatch/MaxDelay pair for that key — the hook an adaptive
	// controller (internal/control) closes its loop through. The delay
	// window of a pending group was armed by the decision that opened it;
	// the lane cap always tracks the latest decision, so a policy that
	// shrinks mid-group launches the group at the next arrival (with
	// ReasonShrink, so the launch is not mistaken for demand).
	Decide func(key string) Policy
}

// Coalescer groups submitted items by key and hands each group to the run
// callback on its own goroutine. All methods are safe for concurrent use.
type Coalescer[T any] struct {
	cfg Config
	run func(key string, items []T, why Reason)

	mu     sync.Mutex
	groups map[string]*group[T]
	closed bool
	wg     sync.WaitGroup
}

type group[T any] struct {
	items []T
	max   int // lane cap from the latest decision governing this group
	timer *time.Timer
}

// New builds a coalescer. run is invoked once per launched group, on a
// fresh goroutine, with the items in submission order; it must fan results
// back to the submitters itself (the coalescer imposes no result shape).
func New[T any](cfg Config, run func(key string, items []T, why Reason)) *Coalescer[T] {
	return &Coalescer[T]{cfg: cfg, run: run, groups: map[string]*group[T]{}}
}

// Submit adds one item to the group of the given key, creating the group
// (and arming its delay timer) if none is pending. It never blocks on the
// run callback.
func (c *Coalescer[T]) Submit(key string, item T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	pol := Policy{MaxBatch: c.cfg.MaxBatch, MaxDelay: c.cfg.MaxDelay}
	if c.cfg.Decide != nil {
		pol = c.cfg.Decide(key)
	}
	g := c.groups[key]
	if g == nil {
		if pol.MaxBatch <= 1 || pol.MaxDelay <= 0 {
			c.launchLocked(key, &group[T]{items: []T{item}}, ReasonImmediate)
			return nil
		}
		g = &group[T]{}
		c.groups[key] = g
		// The timer closure re-checks identity under the lock: if the group
		// already launched full (or was flushed), the map no longer points at
		// g and the firing is a no-op.
		g.timer = time.AfterFunc(pol.MaxDelay, func() {
			c.mu.Lock()
			if c.groups[key] == g {
				c.launchLocked(key, g, ReasonTimeout)
			}
			c.mu.Unlock()
		})
	}
	// A pending group accepts the item even when the latest decision says
	// "immediate" — lane-mates are free throughput — but the cap tracks the
	// decision, so a shrunk policy launches the group right here.
	oldMax := g.max
	g.items = append(g.items, item)
	g.max = pol.MaxBatch
	if len(g.items) >= g.max {
		why := ReasonFull
		if g.max < oldMax && len(g.items) < oldMax {
			// Under the previous cap this arrival would have kept waiting:
			// only the shrunk policy made it a launch.
			why = ReasonShrink
		}
		c.launchLocked(key, g, why)
	}
	return nil
}

// launchLocked detaches the group and starts its run. Caller holds c.mu.
func (c *Coalescer[T]) launchLocked(key string, g *group[T], why Reason) {
	delete(c.groups, key)
	if g.timer != nil {
		g.timer.Stop()
	}
	items := g.items
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run(key, items, why)
	}()
}

// Launch starts the pending group of key now, with ReasonDrain, if mine
// holds for every item in it: the caller knows no lane-mate is on its way
// from whoever submitted those, so waiting out the window would only add
// latency. A group holding any other item keeps its window — its submitter
// may still be sending. Nothing parked under key is a no-op.
func (c *Coalescer[T]) Launch(key string, mine func(T) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[key]
	if g == nil {
		return
	}
	for _, it := range g.items {
		if !mine(it) {
			return
		}
	}
	c.launchLocked(key, g, ReasonDrain)
}

// Pending reports how many items are parked waiting for lane-mates
// (introspection for tests and metrics; racy by nature).
func (c *Coalescer[T]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups {
		n += len(g.items)
	}
	return n
}

// Close launches every pending group immediately (ReasonFlush), waits for
// all in-flight runs to finish, and makes further Submits fail with
// ErrClosed. Safe to call more than once.
func (c *Coalescer[T]) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		for key, g := range c.groups {
			c.launchLocked(key, g, ReasonFlush)
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
}
