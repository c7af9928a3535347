package obsv

import (
	"sync"
	"testing"
)

func TestCounterSet(t *testing.T) {
	c := NewCounterSet()
	c.Add("hits", 2)
	c.Add("hits", 3)
	c.Set("size", 7)
	if got := c.Get("hits"); got != 5 {
		t.Errorf("hits = %d, want 5", got)
	}
	if got := c.Get("absent"); got != 0 {
		t.Errorf("absent = %d, want 0", got)
	}
	snap := c.Snapshot()
	if snap["hits"] != 5 || snap["size"] != 7 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["hits"] = 99 // snapshots are copies
	if c.Get("hits") != 5 {
		t.Error("mutating a snapshot leaked into the set")
	}
}

// TestCounterSetConcurrent is exercised by the CI -race job: many writers,
// one exact total.
func TestCounterSetConcurrent(t *testing.T) {
	c := NewCounterSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add("n", 1)
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Get("n"); got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
}
