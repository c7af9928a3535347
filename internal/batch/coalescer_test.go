package batch

import (
	"sync"
	"testing"
	"time"
)

// sink collects launched groups for assertions.
type sink struct {
	mu     sync.Mutex
	groups [][]int
	keys   []string
	whys   []Reason
}

func (s *sink) run(key string, items []int, why Reason) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups = append(s.groups, items)
	s.keys = append(s.keys, key)
	s.whys = append(s.whys, why)
}

// TestCoalescerFull pins the size trigger: MaxBatch submissions to one key
// launch exactly one group of MaxBatch, ReasonFull, in submission order.
func TestCoalescerFull(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 3, MaxDelay: time.Hour}, s.run)
	for i := 0; i < 3; i++ {
		if err := c.Submit("k", i); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if len(s.groups) != 1 || len(s.groups[0]) != 3 || s.whys[0] != ReasonFull {
		t.Fatalf("groups %v whys %v", s.groups, s.whys)
	}
	for i, v := range s.groups[0] {
		if v != i {
			t.Fatalf("submission order lost: %v", s.groups[0])
		}
	}
}

// TestCoalescerTimeout pins the delay trigger: a lone submission launches
// after MaxDelay with ReasonTimeout.
func TestCoalescerTimeout(t *testing.T) {
	s := &sink{}
	done := make(chan struct{})
	c := New[int](Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond},
		func(key string, items []int, why Reason) {
			s.run(key, items, why)
			close(done)
		})
	if err := c.Submit("k", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timeout launch never fired")
	}
	c.Close()
	if len(s.groups) != 1 || s.whys[0] != ReasonTimeout || s.groups[0][0] != 42 {
		t.Fatalf("groups %v whys %v", s.groups, s.whys)
	}
}

// TestCoalescerKeys pins that different keys never share a group.
func TestCoalescerKeys(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 2, MaxDelay: time.Hour}, s.run)
	c.Submit("a", 1)
	c.Submit("b", 2)
	c.Submit("a", 3)
	c.Submit("b", 4)
	c.Close()
	if len(s.groups) != 2 {
		t.Fatalf("want 2 groups, got %v", s.groups)
	}
	for i, g := range s.groups {
		if len(g) != 2 {
			t.Errorf("group %d (%s): %v", i, s.keys[i], g)
		}
	}
}

// TestCoalescerImmediate pins that MaxBatch <= 1 or MaxDelay <= 0 degrade
// to immediate singleton launches (batching off).
func TestCoalescerImmediate(t *testing.T) {
	for _, cfg := range []Config{
		{MaxBatch: 1, MaxDelay: time.Hour},
		{MaxBatch: 8, MaxDelay: 0},
	} {
		s := &sink{}
		c := New[int](cfg, s.run)
		c.Submit("k", 1)
		c.Submit("k", 2)
		c.Close()
		if len(s.groups) != 2 {
			t.Errorf("cfg %+v: want 2 singleton launches, got %v", cfg, s.groups)
		}
		for _, why := range s.whys {
			if why != ReasonImmediate {
				t.Errorf("cfg %+v: reason %s", cfg, why)
			}
		}
	}
}

// TestCoalescerClose pins the drain contract: Close flushes pending groups
// (ReasonFlush), waits for them, and rejects later submissions.
func TestCoalescerClose(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 8, MaxDelay: time.Hour}, s.run)
	c.Submit("k", 1)
	c.Submit("k", 2)
	if got := c.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	c.Close()
	if len(s.groups) != 1 || s.whys[0] != ReasonFlush || len(s.groups[0]) != 2 {
		t.Fatalf("groups %v whys %v", s.groups, s.whys)
	}
	if err := c.Submit("k", 3); err != ErrClosed {
		t.Fatalf("Submit after Close: %v", err)
	}
}

// TestCoalescerConcurrent hammers one key from many goroutines under the
// race detector: every submission must land in exactly one group and group
// sizes must never exceed MaxBatch.
func TestCoalescerConcurrent(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 4, MaxDelay: time.Millisecond}, s.run)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Submit("k", i)
		}(i)
	}
	wg.Wait()
	c.Close()
	seen := map[int]bool{}
	for _, g := range s.groups {
		if len(g) > 4 {
			t.Errorf("group over MaxBatch: %v", g)
		}
		for _, v := range g {
			if seen[v] {
				t.Errorf("item %d launched twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != n {
		t.Errorf("launched %d of %d items", len(seen), n)
	}
}

// TestCoalescerCloseRaceExactlyOnce races Submit against Close from many
// goroutines, repeatedly, under the race detector. The contract it pins is
// the shutdown half of coalescing: every submission that was ACCEPTED
// (Submit returned nil) is delivered to run exactly once — the closing
// flush neither drops a parked item nor launches its group twice — and
// every rejected submission got ErrClosed, nothing else.
func TestCoalescerCloseRaceExactlyOnce(t *testing.T) {
	const n = 32
	for round := 0; round < 25; round++ {
		var mu sync.Mutex
		delivered := map[int]int{}
		c := New[int](Config{MaxBatch: 4, MaxDelay: time.Hour}, func(key string, items []int, why Reason) {
			mu.Lock()
			for _, v := range items {
				delivered[v]++
			}
			mu.Unlock()
		})
		accepted := make([]bool, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				switch err := c.Submit("k", i); err {
				case nil:
					accepted[i] = true
				case ErrClosed:
				default:
					t.Errorf("round %d: Submit returned %v", round, err)
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.Close()
		}()
		close(start)
		wg.Wait()
		c.Close() // idempotent, and guarantees every launched run finished

		mu.Lock()
		for i := 0; i < n; i++ {
			if accepted[i] && delivered[i] != 1 {
				t.Fatalf("round %d: accepted item %d delivered %d times", round, i, delivered[i])
			}
			if !accepted[i] && delivered[i] != 0 {
				t.Fatalf("round %d: rejected item %d delivered %d times", round, i, delivered[i])
			}
		}
		mu.Unlock()
	}
}

// all is Launch's filter for a caller that owns every item.
func all(int) bool { return true }

// TestCoalescerLaunchOnlyItsKey pins Launch: it starts the group parked
// under its key at once, in submission order and with ReasonDrain, and
// leaves every other key's group waiting.
func TestCoalescerLaunchOnlyItsKey(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 8, MaxDelay: time.Hour}, s.run)
	c.Submit("a", 1)
	c.Submit("b", 2)
	c.Submit("a", 3)
	c.Launch("a", all)
	if got := c.Pending(); got != 1 {
		t.Fatalf("after Launch(a) %d items pending, want b's 1", got)
	}
	c.Close()
	if len(s.groups) != 2 {
		t.Fatalf("want 2 groups, got %v", s.groups)
	}
	for i, key := range s.keys {
		switch {
		case key == "a" && (s.whys[i] != ReasonDrain || len(s.groups[i]) != 2 || s.groups[i][0] != 1 || s.groups[i][1] != 3):
			t.Errorf("a launched %v with %q, want [1 3] with %q", s.groups[i], s.whys[i], ReasonDrain)
		case key == "b" && (s.whys[i] != ReasonFlush || len(s.groups[i]) != 1):
			t.Errorf("b launched %v with %q, want [2] at Close", s.groups[i], s.whys[i])
		}
	}
}

// TestCoalescerLaunchNothingParked pins that Launch is a no-op for a key
// with nothing parked: never seen, launched already, or launched
// immediately by its policy — and after Close.
func TestCoalescerLaunchNothingParked(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 2, MaxDelay: time.Hour}, s.run)
	c.Launch("never", all)
	c.Submit("full", 1)
	c.Submit("full", 2)
	c.Launch("full", all)
	c.Close()
	c.Launch("full", all)
	if len(s.groups) != 1 || s.whys[0] != ReasonFull {
		t.Fatalf("groups %v whys %v, want the one full launch", s.groups, s.whys)
	}

	s = &sink{}
	c = New[int](Config{}, s.run)
	c.Submit("now", 1)
	c.Launch("now", all)
	c.Close()
	if len(s.groups) != 1 || s.whys[0] != ReasonImmediate {
		t.Fatalf("groups %v whys %v, want the one immediate launch", s.groups, s.whys)
	}
}

// TestCoalescerLaunchOnlyMine pins Launch's filter: a group holding one
// item mine refuses keeps its window — that item's submitter may still be
// sending — and a group of only mine launches with ReasonDrain.
func TestCoalescerLaunchOnlyMine(t *testing.T) {
	s := &sink{}
	c := New[int](Config{MaxBatch: 8, MaxDelay: time.Hour}, s.run)
	odd := func(v int) bool { return v%2 == 1 }
	c.Submit("mixed", 1)
	c.Submit("mixed", 2)
	c.Submit("mixed", 3)
	c.Submit("mine", 5)
	c.Submit("mine", 7)
	c.Launch("mixed", odd)
	c.Launch("mine", odd)
	if got := c.Pending(); got != 3 {
		t.Fatalf("%d items pending, want the mixed group's 3", got)
	}
	c.Close()
	for i, key := range s.keys {
		switch {
		case key == "mine" && (s.whys[i] != ReasonDrain || len(s.groups[i]) != 2):
			t.Errorf("mine launched %v with %q, want [5 7] with %q", s.groups[i], s.whys[i], ReasonDrain)
		case key == "mixed" && (s.whys[i] != ReasonFlush || len(s.groups[i]) != 3):
			t.Errorf("mixed launched %v with %q, want [1 2 3] at Close", s.groups[i], s.whys[i])
		}
	}
}
