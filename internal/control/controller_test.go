package control

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/obsv"
)

// manualClock is a scripted clock: tests advance it explicitly, so every
// decision is a pure function of the arrival schedule.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_700_000_000, 0)}
}

func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}

func newTestController(clk *manualClock, ms *obsv.CounterSet) *Controller {
	return New(Config{
		MaxBatch: 16,
		MaxDelay: 2 * time.Millisecond,
		Metrics:  ms,
		Clock:    clk.Now,
	})
}

// A key's first arrival — and arrivals at a trickle — must launch
// immediately: no coalesce delay for traffic that will never find
// lane-mates.
func TestColdKeyLaunchesImmediately(t *testing.T) {
	clk := newManualClock()
	ms := obsv.NewCounterSet()
	c := newTestController(clk, ms)

	pol := c.Decide("fp1")
	if pol.MaxBatch > 1 {
		t.Fatalf("first arrival: want immediate policy, got %+v", pol)
	}
	// One request per second: expected lane-mates inside a 2ms window is
	// 0.002 — stone cold, every decision immediate.
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		if pol = c.Decide("fp1"); pol.MaxBatch > 1 {
			t.Fatalf("trickle arrival %d: want immediate policy, got %+v", i, pol)
		}
	}
	if got := ms.Get(MetricImmediate); got != 6 {
		t.Fatalf("control/immediate = %d, want 6", got)
	}
	if got := ms.Get(MetricBatched); got != 0 {
		t.Fatalf("control/batched = %d, want 0", got)
	}
}

// A hot key's window must grow toward the lane cap, with the delay clamped
// to the time the measured rate needs to fill it.
func TestHotKeyGrowsTowardCap(t *testing.T) {
	clk := newManualClock()
	c := newTestController(clk, obsv.NewCounterSet())

	// 10k arrivals/sec: a 2ms window holds 20 expected lane-mates, which is
	// above the cap of 16 — the policy must saturate at MaxBatch=16 with a
	// delay of roughly 16 × 100µs = 1.6ms, below the 2ms ceiling.
	var pol batch.Policy
	c.Decide("hot")
	for i := 0; i < 40; i++ {
		clk.Advance(100 * time.Microsecond)
		pol = c.Decide("hot")
	}
	if pol.MaxBatch != 16 {
		t.Fatalf("hot policy batch = %d, want the cap 16 (policy %+v)", pol.MaxBatch, pol)
	}
	if pol.MaxDelay <= 0 || pol.MaxDelay > 2*time.Millisecond {
		t.Fatalf("hot policy delay = %s, want within (0, 2ms]", pol.MaxDelay)
	}
	if pol.MaxDelay > 1800*time.Microsecond {
		t.Fatalf("hot policy delay = %s, want ≈16×gap (≤1.8ms): heavy load must shed delay below the ceiling", pol.MaxDelay)
	}
}

// Between cold and saturated: a moderate rate gets a moderate batch target,
// not the cap and not immediate.
func TestModerateLoadIntermediateTarget(t *testing.T) {
	clk := newManualClock()
	c := newTestController(clk, obsv.NewCounterSet())

	// 2.5k/sec: 2ms window holds 5 expected lane-mates.
	var pol batch.Policy
	c.Decide("warm")
	for i := 0; i < 40; i++ {
		clk.Advance(400 * time.Microsecond)
		pol = c.Decide("warm")
	}
	if pol.MaxBatch < 2 || pol.MaxBatch > 8 {
		t.Fatalf("moderate policy batch = %d, want an intermediate target in [2, 8]", pol.MaxBatch)
	}
}

// A hot key that goes quiet must be cold again on return: the silence is
// not averaged into the rate.
func TestSilenceResetsToCold(t *testing.T) {
	clk := newManualClock()
	c := newTestController(clk, obsv.NewCounterSet())

	c.Decide("k")
	for i := 0; i < 20; i++ {
		clk.Advance(100 * time.Microsecond)
		c.Decide("k")
	}
	if pol := c.Decide("k"); pol.MaxBatch <= 1 {
		t.Fatalf("key should be hot before the silence, got %+v", pol)
	}
	clk.Advance(time.Minute)
	if pol := c.Decide("k"); pol.MaxBatch > 1 {
		t.Fatalf("after a minute of silence the key must be cold again, got %+v", pol)
	}
	// And the arrival right after is still rebuilding the estimate from
	// scratch — one fresh gap, not the stale pre-silence rate.
	clk.Advance(time.Second)
	if pol := c.Decide("k"); pol.MaxBatch > 1 {
		t.Fatalf("slow post-silence arrivals must stay cold, got %+v", pol)
	}
}

// Launch feedback: a timeout launch that caught one lane decays the rate
// estimate (shrink); a full launch tightens it (grow).
func TestObserveFeedback(t *testing.T) {
	clk := newManualClock()
	ms := obsv.NewCounterSet()
	c := newTestController(clk, ms)

	c.Decide("k")
	for i := 0; i < 20; i++ {
		clk.Advance(150 * time.Microsecond)
		c.Decide("k")
	}
	before := c.Decide("k")
	if before.MaxBatch <= 1 {
		t.Fatalf("setup: key should be hot, got %+v", before)
	}
	// Repeated near-empty timeout launches must drive the policy back to
	// immediate without any change in the arrival schedule.
	for i := 0; i < 12; i++ {
		c.Observe("k", 1, batch.ReasonTimeout)
	}
	clk.Advance(150 * time.Microsecond)
	after := c.Decide("k")
	if after.MaxBatch > 1 {
		t.Fatalf("after shrink feedback the policy must be immediate, got %+v", after)
	}
	if got := ms.Get(MetricShrink); got != 12 {
		t.Fatalf("control/shrink = %d, want 12", got)
	}

	// Full launches on a hot key tighten the estimate: the target must not
	// decrease, and grow feedback is counted.
	clk2 := newManualClock()
	ms2 := obsv.NewCounterSet()
	c2 := newTestController(clk2, ms2)
	c2.Decide("k")
	for i := 0; i < 20; i++ {
		clk2.Advance(400 * time.Microsecond)
		c2.Decide("k")
	}
	base := c2.Decide("k")
	for i := 0; i < 5; i++ {
		c2.Observe("k", base.MaxBatch, batch.ReasonFull)
	}
	clk2.Advance(400 * time.Microsecond)
	grown := c2.Decide("k")
	if grown.MaxBatch < base.MaxBatch {
		t.Fatalf("grow feedback must not shrink the target: %d -> %d", base.MaxBatch, grown.MaxBatch)
	}
	if got := ms2.Get(MetricGrow); got != 5 {
		t.Fatalf("control/grow = %d, want 5", got)
	}

	// Shrink launches are policy artifacts — the coalescer launched because
	// a decision dropped the cap, not because demand filled a batch — and
	// must leave the estimate and the grow/shrink ledger untouched: a twin
	// controller fed the identical schedule minus the shrink observes must
	// land on the identical policy.
	for i := 0; i < 5; i++ {
		c2.Observe("k", grown.MaxBatch, batch.ReasonShrink)
	}
	clk2.Advance(400 * time.Microsecond)
	afterShrink := c2.Decide("k")

	clk3 := newManualClock()
	c3 := newTestController(clk3, obsv.NewCounterSet())
	c3.Decide("k")
	for i := 0; i < 20; i++ {
		clk3.Advance(400 * time.Microsecond)
		c3.Decide("k")
	}
	c3.Decide("k")
	for i := 0; i < 5; i++ {
		c3.Observe("k", base.MaxBatch, batch.ReasonFull)
	}
	clk3.Advance(400 * time.Microsecond)
	c3.Decide("k")
	clk3.Advance(400 * time.Microsecond)
	if want := c3.Decide("k"); afterShrink != want {
		t.Fatalf("shrink launches changed the policy: %+v, want %+v", afterShrink, want)
	}
	if ms2.Get(MetricGrow) != 5 || ms2.Get(MetricShrink) != 0 {
		t.Fatalf("shrink launches must not count as feedback: grow=%d shrink=%d",
			ms2.Get(MetricGrow), ms2.Get(MetricShrink))
	}
}

// A drain launch means the submitter ran out of lanes, which says nothing
// about the key's arrival rate: whatever it caught, the estimate and the
// feedback counters stay as they were.
func TestObserveIgnoresDrain(t *testing.T) {
	clk := newManualClock()
	ms := obsv.NewCounterSet()
	c := newTestController(clk, ms)
	c.Decide("k")
	for i := 0; i < 20; i++ {
		clk.Advance(150 * time.Microsecond)
		c.Decide("k")
	}
	gap := func() time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.keys["k"].ewmaGap
	}
	before := gap()
	for _, lanes := range []int{1, 2, 16, 64} {
		c.Observe("k", lanes, batch.ReasonDrain)
	}
	if after := gap(); after != before {
		t.Fatalf("drain launches moved the gap estimate %v -> %v", before, after)
	}
	if ms.Get(MetricGrow) != 0 || ms.Get(MetricShrink) != 0 {
		t.Fatalf("drain launches counted as feedback: grow=%d shrink=%d", ms.Get(MetricGrow), ms.Get(MetricShrink))
	}
}

// The per-key state is bounded: the stalest fingerprint is evicted at the
// MaxKeys cap.
func TestKeyStateBounded(t *testing.T) {
	clk := newManualClock()
	ms := obsv.NewCounterSet()
	c := New(Config{MaxKeys: 8, Metrics: ms, Clock: clk.Now})

	for i := 0; i < 50; i++ {
		clk.Advance(time.Millisecond)
		c.Decide(fmt.Sprintf("fp%d", i))
	}
	if got := c.Keys(); got > 8 {
		t.Fatalf("controller holds %d key states, want <= 8", got)
	}
	if got := ms.Get(MetricEvicted); got != 42 {
		t.Fatalf("control/evicted = %d, want 42", got)
	}
}

// The controller must be race-clean when plugged into a concurrent
// coalescer: many goroutines deciding and observing across keys.
func TestControllerConcurrent(t *testing.T) {
	c := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("fp%d", g%3)
			for i := 0; i < 500; i++ {
				pol := c.Decide(key)
				c.Observe(key, pol.MaxBatch, batch.ReasonFull)
			}
		}(g)
	}
	wg.Wait()
}
