package planstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// plan compiles a small prepared multiplication with a seed-distinguished
// structure and returns it with its fingerprint.
func plan(t *testing.T, seed int64) (*core.Prepared, string) {
	t.Helper()
	inst := workload.Mixed(20, 3, seed)
	opts := core.Options{Ring: ring.Counting{}}
	p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	fp, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return p, fp
}

// entryPath digs out the on-disk path of an entry (the fanout layout is
// documented API, docs/PLANSTORE.md).
func entryPath(dir, fp string) string {
	return filepath.Join(dir, fp[:2], fp+".prep")
}

// futureEnvelope rewrites the entry at path as a build one format
// generation ahead would have written it: same body and checksum, the
// header's version field (offset 8, docs/PLANSTORE.md) bumped to N+1.
func futureEnvelope(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], core.PreparedFormatVersion+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	ms := obsv.NewCounterSet()
	s, err := planstore.Open(t.TempDir(), 0, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p, fp := plan(t, 1)

	if _, err := s.Get(fp); !errors.Is(err, planstore.ErrNotFound) {
		t.Fatalf("get before put: err=%v, want ErrNotFound", err)
	}
	if err := s.Put(fp, p); err != nil {
		t.Fatalf("put: %v", err)
	}
	q, err := s.Get(fp)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if q.D != p.D || q.Band != p.Band || q.Classes != p.Classes {
		t.Fatalf("restored metadata %v/%v/%d, want %v/%v/%d", q.Classes, q.Band, q.D, p.Classes, p.Band, p.D)
	}
	if got := ms.Get(planstore.MetricHits); got != 1 {
		t.Fatalf("store/hits = %d, want 1", got)
	}
	if got := ms.Get(planstore.MetricMisses); got != 1 {
		t.Fatalf("store/misses = %d, want 1", got)
	}
	if got := ms.Get(planstore.MetricWrites); got != 1 {
		t.Fatalf("store/writes = %d, want 1", got)
	}
	if got := ms.Get(planstore.MetricBytes); got <= 0 {
		t.Fatalf("store/bytes = %d, want > 0", got)
	}

	// A second store over the same directory sees the entry (warm restart).
	s2, err := planstore.Open(s.Dir(), 0, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := s2.Get(fp); err != nil {
		t.Fatalf("get after reopen: %v", err)
	}

	if err := s.Put("zz not a fingerprint", p); err == nil {
		t.Fatalf("put under malformed fingerprint succeeded")
	}
}

func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a plan at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := obsv.NewCounterSet()
			s, err := planstore.Open(t.TempDir(), 0, ms)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			p, fp := plan(t, 2)
			if err := s.Put(fp, p); err != nil {
				t.Fatalf("put: %v", err)
			}
			tc.damage(t, entryPath(s.Dir(), fp))

			_, err = s.Get(fp)
			if !errors.Is(err, planstore.ErrCorrupt) {
				t.Fatalf("get of damaged entry: err=%v, want ErrCorrupt", err)
			}
			// The entry moved to quarantine: gone from the serving path,
			// preserved on disk.
			if _, err := s.Get(fp); !errors.Is(err, planstore.ErrNotFound) {
				t.Fatalf("second get: err=%v, want ErrNotFound (quarantined)", err)
			}
			qs, err := s.Quarantined()
			if err != nil {
				t.Fatalf("quarantined: %v", err)
			}
			if len(qs) != 1 || qs[0] != fp {
				t.Fatalf("quarantine holds %v, want [%s]", qs, fp)
			}
			if got := ms.Get(planstore.MetricQuarantined); got != 1 {
				t.Fatalf("store/quarantined = %d, want 1", got)
			}
		})
	}
}

func TestStoreRejectsWrongContentAddress(t *testing.T) {
	s, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pa, fpa := plan(t, 3)
	_, fpb := plan(t, 4)
	if fpa == fpb {
		t.Fatalf("distinct structures share a fingerprint")
	}
	// Put refuses to file a plan under a foreign key...
	if err := s.Put(fpb, pa); err == nil {
		t.Fatalf("put under wrong fingerprint succeeded")
	}
	// ...and Get catches an entry renamed behind the store's back.
	if err := s.Put(fpa, pa); err != nil {
		t.Fatalf("put: %v", err)
	}
	raw, err := os.ReadFile(entryPath(s.Dir(), fpa))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(entryPath(s.Dir(), fpb)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(s.Dir(), fpb), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(fpb); !errors.Is(err, planstore.ErrCorrupt) {
		t.Fatalf("get of renamed entry: err=%v, want ErrCorrupt", err)
	}
}

// TestStoreCrossVersionEntryRejected plants entries from the two other
// build generations under a live fingerprint — a future build's (header
// version N+1, checksum valid) and the retired gob generation's (a committed
// v1 entry, which fails the magic check) — and checks that Verify reports
// each, Get quarantines it with the right cause, and the plan recompiles
// and serves from the store again.
func TestStoreCrossVersionEntryRejected(t *testing.T) {
	inst := workload.Blocks(8, 2)
	opts := core.Options{Ring: ring.Counting{}}
	p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, path string)
		cause error
	}{
		{"future", futureEnvelope, core.ErrEnvelopeVersion},
		// testdata/v1-blocks-8-2.prep is core.Prepared.Encode of this very
		// plan as the gob generation (PR 15) wrote it.
		{"v1-gob", func(t *testing.T, path string) {
			raw, err := os.ReadFile(filepath.Join("testdata", "v1-blocks-8-2.prep"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, core.ErrEnvelope},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := planstore.Open(t.TempDir(), 0, nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := s.Put(fp, p); err != nil {
				t.Fatalf("put: %v", err)
			}
			tc.plant(t, entryPath(s.Dir(), fp))

			issues, err := s.Verify(false)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if len(issues) != 1 || issues[0].Fingerprint != fp || !errors.Is(issues[0].Err, tc.cause) {
				t.Fatalf("verify found %v, want one %v issue on %s", issues, tc.cause, fp)
			}
			_, err = s.Get(fp)
			if !errors.Is(err, planstore.ErrCorrupt) || !errors.Is(err, tc.cause) {
				t.Fatalf("cross-version get: err=%v, want ErrCorrupt caused by %v", err, tc.cause)
			}
			if qs, _ := s.Quarantined(); len(qs) != 1 || qs[0] != fp {
				t.Fatalf("cross-version entry not quarantined: %v", qs)
			}
			// The remedy: recompile from structure and store again.
			if err := s.Put(fp, p); err != nil {
				t.Fatalf("put after quarantine: %v", err)
			}
			if _, err := s.Get(fp); err != nil {
				t.Fatalf("get after recompile: %v", err)
			}
		})
	}
}

func TestStoreVerify(t *testing.T) {
	s, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pGood, fpGood := plan(t, 6)
	pBad, fpBad := plan(t, 7)
	if err := s.Put(fpGood, pGood); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpBad, pBad); err != nil {
		t.Fatal(err)
	}
	futureEnvelope(t, entryPath(s.Dir(), fpBad))

	issues, err := s.Verify(false)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(issues) != 1 || issues[0].Fingerprint != fpBad {
		t.Fatalf("verify found %v, want one issue on %s", issues, fpBad)
	}
	if !errors.Is(issues[0].Err, core.ErrEnvelopeVersion) {
		t.Fatalf("issue error %v, want core.ErrEnvelopeVersion", issues[0].Err)
	}
	// Dry run left the entry in place; fix quarantines it.
	if entries, _ := s.List(); len(entries) != 2 {
		t.Fatalf("dry-run verify changed the store: %v", entries)
	}
	if _, err := s.Verify(true); err != nil {
		t.Fatalf("verify -fix: %v", err)
	}
	entries, _ := s.List()
	if len(entries) != 1 || entries[0].Fingerprint != fpGood {
		t.Fatalf("after fix store holds %v, want only %s", entries, fpGood)
	}
	qs, _ := s.Quarantined()
	if len(qs) != 1 || qs[0] != fpBad {
		t.Fatalf("after fix quarantine holds %v, want [%s]", qs, fpBad)
	}
}

func TestStoreGCEvictsLRU(t *testing.T) {
	ms := obsv.NewCounterSet()
	// Open unbounded first to learn one entry's size, then set the budget.
	dir := t.TempDir()
	s, err := planstore.Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var fps []string
	for seed := int64(10); seed < 14; seed++ {
		p, fp := plan(t, seed)
		if err := s.Put(fp, p); err != nil {
			t.Fatalf("put: %v", err)
		}
		fps = append(fps, fp)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4", len(entries))
	}
	var maxBytes int64
	for _, e := range entries {
		if e.Bytes > maxBytes {
			maxBytes = e.Bytes
		}
	}

	// Pin an explicit recency order: fps[0] oldest … fps[3] newest.
	base := time.Now().Add(-time.Hour)
	for i, fp := range fps {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(entryPath(dir, fp), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for roughly two entries: the two oldest must go.
	s2, err := planstore.Open(dir, 2*maxBytes+1, ms)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	evicted, freed, err := s2.GC()
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if evicted < 1 || freed <= 0 {
		t.Fatalf("gc evicted %d (%d bytes), want evictions", evicted, freed)
	}
	left, _ := s2.List()
	for _, e := range left {
		if e.Fingerprint == fps[0] {
			t.Fatalf("LRU entry %s survived GC", fps[0])
		}
	}
	// The most recently used entry always survives.
	found := false
	for _, e := range left {
		found = found || e.Fingerprint == fps[3]
	}
	if !found {
		t.Fatalf("MRU entry %s was evicted", fps[3])
	}
	if got := ms.Get(planstore.MetricGCEvicted); got != int64(evicted) {
		t.Fatalf("store/gc_evicted = %d, want %d", got, evicted)
	}
	if got := ms.Get(planstore.MetricBytes); got > 2*maxBytes+1 {
		t.Fatalf("store/bytes = %d still above budget %d", got, 2*maxBytes+1)
	}
}

func TestStoreConcurrentWritersAndReaders(t *testing.T) {
	ms := obsv.NewCounterSet()
	s, err := planstore.Open(t.TempDir(), 0, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p, fp := plan(t, 20)
	q, fq := plan(t, 21)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := s.Put(fp, p); err != nil {
					errs <- err
				}
				if err := s.Put(fq, q); err != nil {
					errs <- err
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := s.Get(fp); err != nil && !errors.Is(err, planstore.ErrNotFound) {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op: %v", err)
	}
	for _, f := range []string{fp, fq} {
		if _, err := s.Get(f); err != nil {
			t.Fatalf("entry %s unreadable after concurrent writes: %v", f, err)
		}
	}
	if qs, _ := s.Quarantined(); len(qs) != 0 {
		t.Fatalf("concurrent writes quarantined entries: %v", qs)
	}
	if got, want := ms.Get(planstore.MetricBytes), listedBytes(t, s); got != want {
		t.Fatalf("after concurrent writes store/bytes = %d, listing sums to %d", got, want)
	}
}

// TestStoreConcurrentGets: concurrent Gets of distinct entries, each
// decoding into pooled buffers the others reuse, every one return the plan
// stored under its own fingerprint, multiplying to the reference product.
func TestStoreConcurrentGets(t *testing.T) {
	s, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	type entry struct {
		fp   string
		inst *graph.Instance
	}
	var entries []entry
	for seed := int64(30); seed < 34; seed++ {
		inst := workload.Mixed(20, 3, seed)
		p, fp := plan(t, seed)
		if err := s.Put(fp, p); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{fp, inst})
	}
	r := ring.Counting{}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				e := entries[(g+j)%len(entries)]
				p, err := s.Get(e.fp)
				if err != nil {
					errs <- err
					return
				}
				got, err := p.Fingerprint()
				if err != nil || got != e.fp {
					errs <- fmt.Errorf("Get(%s) returned a plan fingerprinting to %s (%v)", e.fp, got, err)
					return
				}
				a, b := matrix.Random(e.inst.Ahat, r, int64(g)), matrix.Random(e.inst.Bhat, r, int64(j))
				x, _, err := p.Multiply(a, b)
				if err != nil || !matrix.Equal(x, matrix.MulReference(a, b, e.inst.Xhat)) {
					errs <- fmt.Errorf("Get(%s) returned a plan with a wrong product (%v)", e.fp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreGetTouchesLRU is the cache-fidelity regression for the mtime
// touch in Get: a HIT must count as a USE. An entry that is old on disk but
// hot in traffic has to outlive a younger entry nobody reads — without the
// touch, GC would evict by write time and throw away the hottest plans
// first on every budget squeeze.
func TestStoreGetTouchesLRU(t *testing.T) {
	dir := t.TempDir()
	s, err := planstore.Open(dir, 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var fps []string
	var maxBytes int64
	for seed := int64(30); seed < 33; seed++ {
		p, fp := plan(t, seed)
		if err := s.Put(fp, p); err != nil {
			t.Fatalf("put: %v", err)
		}
		fps = append(fps, fp)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, e := range entries {
		if e.Bytes > maxBytes {
			maxBytes = e.Bytes
		}
	}
	// On-disk ages: fps[0] oldest, fps[2] newest.
	base := time.Now().Add(-3 * time.Hour)
	for i, fp := range fps {
		when := base.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(entryPath(dir, fp), when, when); err != nil {
			t.Fatal(err)
		}
	}

	// A budgeted process serves the OLDEST entry — the hit must promote it.
	s2, err := planstore.Open(dir, 2*maxBytes+1, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := s2.Get(fps[0]); err != nil {
		t.Fatalf("get: %v", err)
	}
	if evicted, _, err := s2.GC(); err != nil || evicted < 1 {
		t.Fatalf("gc evicted %d (err %v), want at least 1", evicted, err)
	}

	left, err := s2.List()
	if err != nil {
		t.Fatalf("list after gc: %v", err)
	}
	survivors := map[string]bool{}
	for _, e := range left {
		survivors[e.Fingerprint] = true
	}
	if !survivors[fps[0]] {
		t.Fatalf("hit entry %s evicted over the untouched newer %s", fps[0], fps[1])
	}
	if survivors[fps[1]] {
		t.Fatalf("untouched entry %s survived while budget forced an eviction", fps[1])
	}
	if !survivors[fps[2]] {
		t.Fatalf("newest entry %s evicted", fps[2])
	}
}

// listedBytes is the sum of List's entry sizes: what store/bytes reads
// right after an Open or a GC.
func listedBytes(t *testing.T, s *planstore.Store) int64 {
	t.Helper()
	entries, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	return total
}

// envelopeBytes is the size of p's entry on disk.
func envelopeBytes(t *testing.T, p *core.Prepared) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return int64(buf.Len())
}

// TestStoreBytesTracksWrites: the store/bytes running total equals the
// listing after every step of new writes, a re-write of a resident entry,
// a quarantine and a GC — without any of the writes listing the store.
func TestStoreBytesTracksWrites(t *testing.T) {
	ms := obsv.NewCounterSet()
	s, err := planstore.Open(t.TempDir(), 0, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	step := func(what string) {
		t.Helper()
		if got, want := ms.Get(planstore.MetricBytes), listedBytes(t, s); got != want {
			t.Fatalf("after %s: store/bytes = %d, listing sums to %d", what, got, want)
		}
	}
	var fps []string
	for seed := int64(40); seed < 43; seed++ {
		p, fp := plan(t, seed)
		if err := s.Put(fp, p); err != nil {
			t.Fatalf("put: %v", err)
		}
		fps = append(fps, fp)
		step(fmt.Sprintf("put of seed %d", seed))
	}
	p, fp := plan(t, 41)
	if err := s.Put(fp, p); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	step("re-put of a resident entry")

	// A bit flip keeps the entry's size: the quarantine takes off exactly
	// what the write put on.
	path := entryPath(s.Dir(), fps[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(fps[0]); !errors.Is(err, planstore.ErrCorrupt) {
		t.Fatalf("get of damaged entry: err=%v, want ErrCorrupt", err)
	}
	step("quarantine")
	if _, _, err := s.GC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	step("gc")
	if got := ms.Get(planstore.MetricWrites); got != 4 {
		t.Fatalf("store/writes = %d, want 4", got)
	}
}

// TestStoreUnbudgetedPutListsNothing: an entry copied into the directory
// behind the store's back is not counted by the next Put — an unbudgeted
// Put lists nothing — but is by the next GC and by the next Open.
func TestStoreUnbudgetedPutListsNothing(t *testing.T) {
	ms := obsv.NewCounterSet()
	dir := t.TempDir()
	s, err := planstore.Open(dir, 0, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pa, fpa := plan(t, 50)
	if err := s.Put(fpa, pa); err != nil {
		t.Fatalf("put: %v", err)
	}
	before := ms.Get(planstore.MetricBytes)

	// Another writer's entry appears by a plain copy.
	other, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pb, fpb := plan(t, 51)
	if err := other.Put(fpb, pb); err != nil {
		t.Fatalf("put: %v", err)
	}
	raw, err := os.ReadFile(entryPath(other.Dir(), fpb))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(entryPath(dir, fpb)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, fpb), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pc, fpc := plan(t, 52)
	if err := s.Put(fpc, pc); err != nil {
		t.Fatalf("put: %v", err)
	}
	if got, want := ms.Get(planstore.MetricBytes), before+envelopeBytes(t, pc); got != want {
		t.Fatalf("after put: store/bytes = %d, want %d (this process's writes only)", got, want)
	}
	want := listedBytes(t, s)
	if want != ms.Get(planstore.MetricBytes)+int64(len(raw)) {
		t.Fatalf("listing sums to %d, want the gauge plus the %d copied bytes", want, len(raw))
	}
	if _, _, err := s.GC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if got := ms.Get(planstore.MetricBytes); got != want {
		t.Fatalf("after gc: store/bytes = %d, want %d", got, want)
	}
	reopened := obsv.NewCounterSet()
	if _, err := planstore.Open(dir, 0, reopened); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reopened.Get(planstore.MetricBytes); got != want {
		t.Fatalf("after open: store/bytes = %d, want %d", got, want)
	}
}

// TestStoreBudgetedPutEvicts: with a budget set, the Put that crosses it
// evicts the least recently used entry itself, with no explicit GC.
func TestStoreBudgetedPutEvicts(t *testing.T) {
	var plans []*core.Prepared
	var fps []string
	var sizes int64
	for seed := int64(60); seed < 63; seed++ {
		p, fp := plan(t, seed)
		plans, fps = append(plans, p), append(fps, fp)
		sizes += envelopeBytes(t, p)
	}
	ms := obsv.NewCounterSet()
	dir := t.TempDir()
	// Room for any two of the three entries, not for all three.
	s, err := planstore.Open(dir, sizes-1, ms)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	base := time.Now().Add(-time.Hour)
	for i := range 2 {
		if err := s.Put(fps[i], plans[i]); err != nil {
			t.Fatalf("put: %v", err)
		}
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(entryPath(dir, fps[i]), when, when); err != nil {
			t.Fatal(err)
		}
	}
	if got := ms.Get(planstore.MetricGCEvicted); got != 0 {
		t.Fatalf("store/gc_evicted = %d under the budget, want 0", got)
	}
	if err := s.Put(fps[2], plans[2]); err != nil {
		t.Fatalf("put: %v", err)
	}
	if got := ms.Get(planstore.MetricGCEvicted); got != 1 {
		t.Fatalf("store/gc_evicted = %d after crossing the budget, want 1", got)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(entries) != 2 || entries[0].Fingerprint != fps[2] || entries[1].Fingerprint != fps[1] {
		t.Fatalf("store holds %v, want %s then %s (the LRU %s evicted)", entries, fps[2], fps[1], fps[0])
	}
	if got, want := ms.Get(planstore.MetricBytes), listedBytes(t, s); got != want {
		t.Fatalf("store/bytes = %d, listing sums to %d", got, want)
	}
}
