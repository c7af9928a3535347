package planstore

import (
	"errors"
	"os"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestQuarantineSparesAReplacedEntry: a writer that repairs a damaged
// entry between a read's check and its quarantine wins. The fresh entry
// stays served, nothing is quarantined, and store/bytes still equals the
// listing.
func TestQuarantineSparesAReplacedEntry(t *testing.T) {
	inst := workload.Mixed(20, 3, 70)
	p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: ring.Counting{}})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	ms := obsv.NewCounterSet()
	s, err := Open(t.TempDir(), 0, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put(fp, p); err != nil {
		t.Fatalf("put: %v", err)
	}
	raw, err := os.ReadFile(s.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	// A bit flip keeps the size the running total counted.
	damage := func() {
		t.Helper()
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0xff
		if err := os.WriteFile(s.path(fp), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage()
	_, bad, err := s.check(fp)
	if err == nil || bad == nil {
		t.Fatalf("check of a damaged entry: info %v, err %v; want its Stat and an error", bad, err)
	}

	if err := s.Put(fp, p); err != nil {
		t.Fatalf("repairing put: %v", err)
	}
	if err := s.quarantine(fp, bad); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	if qs, err := s.Quarantined(); err != nil || len(qs) != 0 {
		t.Fatalf("quarantine holds %v (%v), want nothing", qs, err)
	}
	if _, err := s.Get(fp); err != nil {
		t.Fatalf("get of the repaired entry: %v", err)
	}
	if got, want := ms.Get(MetricBytes), int64(len(raw)); got != want {
		t.Fatalf("store/bytes = %d, want the repaired entry's %d", got, want)
	}

	// Without the repair, the quarantine moves the damaged file.
	damage()
	if _, err := s.Get(fp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get of a damaged entry: err=%v, want ErrCorrupt", err)
	}
	if qs, err := s.Quarantined(); err != nil || len(qs) != 1 {
		t.Fatalf("quarantine holds %v (%v), want the damaged entry", qs, err)
	}
	if got := ms.Get(MetricBytes); got != 0 {
		t.Fatalf("store/bytes = %d after the quarantine, want 0", got)
	}
}
