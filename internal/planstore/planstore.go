// Package planstore is a disk-backed, content-addressed store of prepared
// multiplication plans — the persistence tier behind the serving layer's
// in-memory cache (docs/PLANSTORE.md).
//
// Every entry is one core.Prepared envelope (core.Encode) stored under its
// core.Fingerprint: equal fingerprints mean core.Prepare is guaranteed to
// produce an equivalent plan, so an entry written by one process can be
// served by any other process of the same build. Entries live in a two-level
// fanout layout, dir/<fp[:2]>/<fp>.prep, written atomically (temp file +
// rename) so readers — including concurrent processes sharing the directory
// — only ever observe complete envelopes.
//
// Trust model: files on disk are outside the process and may be truncated,
// bit-flipped or stored under the wrong name. Every Get re-validates the
// envelope (magic, version, checksum, full structural checks on the embedded
// instruction streams) and re-derives the content address from the decoded
// structure, comparing it against the file name. Anything that fails is
// moved into dir/quarantine — never deleted (it is evidence), never served,
// and never picked up again by Get or GC.
//
// Concurrency: a Store is safe for concurrent use by multiple goroutines,
// and the directory may be shared by multiple processes. The only lock is
// an in-process mutex serializing GC scans with budget enforcement; all
// cross-process coordination rides on rename atomicity.
package planstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/obsv"
)

// Counter names published by the store (gauges noted).
const (
	MetricHits        = "store/hits"
	MetricMisses      = "store/misses"
	MetricWrites      = "store/writes"
	MetricGCEvicted   = "store/gc_evicted"
	MetricBytes       = "store/bytes" // gauge: resident entry bytes
	MetricQuarantined = "store/quarantined"
)

// ErrNotFound reports that no entry exists under the fingerprint. Callers
// compile from structure and (usually) write the result back.
var ErrNotFound = errors.New("planstore: plan not found")

// ErrCorrupt wraps any entry failure that caused a quarantine: damaged
// envelope, version from another build generation, or a content address
// that does not match the decoded structure. Like ErrNotFound the remedy is
// to recompile; unlike it, the bad file was preserved under quarantine/.
var ErrCorrupt = errors.New("planstore: entry quarantined")

const (
	entrySuffix   = ".prep"
	quarantineDir = "quarantine"
	fpLen         = 64 // hex-encoded SHA-256
)

// Store is a handle on one plan-store directory. The zero value is not
// usable; call Open.
type Store struct {
	dir string
	// budget bounds the total entry bytes; 0 disables GC.
	budget  int64
	metrics *obsv.CounterSet
	// gcMu serializes in-process GC scans. It deliberately does not cover
	// Get/Put file operations: those are already atomic at the filesystem
	// level, and holding a store-wide lock across plan decoding would
	// serialize the warm path.
	gcMu sync.Mutex
}

// Open ensures dir exists and returns a store over it. budgetBytes bounds
// the total size of resident entries (the least-recently-used entries are
// evicted past it; 0 means unbounded). The metrics set receives the store/*
// counters; nil allocates a private set.
func Open(dir string, budgetBytes int64, metrics *obsv.CounterSet) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("planstore: empty directory")
	}
	if budgetBytes < 0 {
		return nil, fmt.Errorf("planstore: negative byte budget %d", budgetBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	if metrics == nil {
		metrics = obsv.NewCounterSet()
	}
	s := &Store{dir: dir, budget: budgetBytes, metrics: metrics}
	if _, err := s.publishBytes(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry path for a fingerprint (two-level fanout keeps
// directory sizes bounded under many thousands of plans).
func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+entrySuffix)
}

// validFP reports whether fp is a well-formed content address. Anything
// else never touches the filesystem — fingerprints come from request
// hashing, but defense in depth costs one scan.
func validFP(fp string) bool {
	if len(fp) != fpLen {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get loads, validates and returns the entry under fp. A plain absence
// returns ErrNotFound; a damaged or cross-version entry is moved to
// quarantine and returns an error wrapping ErrCorrupt (and, for version
// mismatches, core.ErrEnvelopeVersion). On success the entry's modification
// time is bumped to now, which is the recency signal GC evicts by.
func (s *Store) Get(fp string) (*core.Prepared, error) {
	if !validFP(fp) {
		return nil, fmt.Errorf("planstore: malformed fingerprint %q", fp)
	}
	p, opened, err := s.check(fp)
	if err != nil {
		s.metrics.Add(MetricMisses, 1)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil, ErrNotFound
		case !opened:
			return nil, fmt.Errorf("planstore: %w", err)
		}
		if qerr := s.quarantine(fp); qerr != nil {
			return nil, fmt.Errorf("%w: %w (quarantine failed: %v)", ErrCorrupt, err, qerr)
		}
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	// Touch for LRU. Best-effort: a failed touch (entry evicted between the
	// read and now) does not invalidate the decoded plan.
	now := time.Now()
	_ = os.Chtimes(s.path(fp), now, now)
	s.metrics.Add(MetricHits, 1)
	return p, nil
}

// Put writes p under fp atomically and enforces the byte budget. The entry
// only becomes visible under its final name once fully written and synced,
// so concurrent readers and writers — same process or not — never observe
// a torn entry; double-writes of the same fingerprint are idempotent by
// content addressing (last rename wins, both contents are equivalent).
func (s *Store) Put(fp string, p *core.Prepared) error {
	if !validFP(fp) {
		return fmt.Errorf("planstore: malformed fingerprint %q", fp)
	}
	if got, err := p.Fingerprint(); err != nil {
		return fmt.Errorf("planstore: %w", err)
	} else if got != fp {
		return fmt.Errorf("planstore: plan fingerprints to %s, refusing to store under %s", got, fp)
	}
	fan := filepath.Join(s.dir, fp[:2])
	if err := os.MkdirAll(fan, 0o755); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	tmp, err := os.CreateTemp(fan, "."+fp+".tmp*")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := p.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("planstore: encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("planstore: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(fp)); err != nil {
		return fmt.Errorf("planstore: publish: %w", err)
	}
	syncDir(fan)
	s.metrics.Add(MetricWrites, 1)
	if _, _, err := s.GC(); err != nil {
		return fmt.Errorf("planstore: entry stored, but: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Best-effort:
// some filesystems reject directory fsync, and losing a cache entry to a
// crash is recoverable by design.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// quarantine moves a damaged entry aside so it is preserved for inspection
// but never scanned, served or re-validated again.
func (s *Store) quarantine(fp string) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	if err := os.Rename(s.path(fp), filepath.Join(qdir, fp+entrySuffix)); err != nil {
		return err
	}
	s.metrics.Add(MetricQuarantined, 1)
	return nil
}

// Entry describes one resident store entry.
type Entry struct {
	Fingerprint string
	Bytes       int64
	// ModTime is the recency stamp GC orders by: bumped on every hit.
	ModTime time.Time
}

// List returns the resident entries, most recently used first. Quarantined
// files are not listed (see Quarantined).
func (s *Store) List() ([]Entry, error) {
	var out []Entry
	fans, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("planstore: %w", err)
		}
		for _, f := range files {
			fp, isEntry := strings.CutSuffix(f.Name(), entrySuffix)
			if !isEntry || !validFP(fp) || fp[:2] != fan.Name() {
				continue // temp files, strays
			}
			info, err := f.Info()
			if err != nil {
				continue // lost a race with eviction
			}
			out = append(out, Entry{Fingerprint: fp, Bytes: info.Size(), ModTime: info.ModTime()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.After(out[j].ModTime) })
	return out, nil
}

// Quarantined returns the fingerprints sitting in quarantine.
func (s *Store) Quarantined() ([]string, error) {
	files, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("planstore: %w", err)
	}
	var out []string
	for _, f := range files {
		if fp, isEntry := strings.CutSuffix(f.Name(), entrySuffix); isEntry && validFP(fp) {
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out, nil
}

// GC enforces the byte budget: while the resident entries exceed it, the
// least recently used entry is removed. It returns how many entries were
// evicted and how many bytes were freed. With no budget it only refreshes
// the store/bytes gauge.
func (s *Store) GC() (evicted int, freed int64, err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	entries, err := s.List()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	if s.budget > 0 {
		// entries are MRU-first; evict from the tail.
		for i := len(entries) - 1; i >= 0 && total > s.budget; i-- {
			e := entries[i]
			if rmErr := os.Remove(s.path(e.Fingerprint)); rmErr != nil && !errors.Is(rmErr, fs.ErrNotExist) {
				return evicted, freed, fmt.Errorf("planstore: evict %s: %w", e.Fingerprint, rmErr)
			}
			total -= e.Bytes
			freed += e.Bytes
			evicted++
		}
		if evicted > 0 {
			s.metrics.Add(MetricGCEvicted, int64(evicted))
		}
	}
	s.metrics.Set(MetricBytes, total)
	return evicted, freed, nil
}

// publishBytes refreshes the store/bytes gauge and returns the total.
func (s *Store) publishBytes() (int64, error) {
	entries, err := s.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	s.metrics.Set(MetricBytes, total)
	return total, nil
}

// Issue is one problem Verify found.
type Issue struct {
	Fingerprint string
	Err         error
}

// Verify decodes and re-validates every resident entry, reporting — and,
// when fix is set, quarantining — the ones that fail. It is the offline
// twin of the checks Get performs on the serving path; `lbmm plans verify`
// is its CLI surface.
func (s *Store) Verify(fix bool) ([]Issue, error) {
	entries, err := s.List()
	if err != nil {
		return nil, err
	}
	var issues []Issue
	for _, e := range entries {
		_, _, err := s.check(e.Fingerprint)
		if err == nil {
			continue
		}
		if fix {
			if qerr := s.quarantine(e.Fingerprint); qerr != nil {
				err = fmt.Errorf("%w (quarantine failed: %v)", err, qerr)
			}
		}
		issues = append(issues, Issue{Fingerprint: e.Fingerprint, Err: err})
	}
	if fix && len(issues) > 0 {
		if _, err := s.publishBytes(); err != nil {
			return issues, err
		}
	}
	return issues, nil
}

// check is the one verify path, behind Get and Verify: open the entry,
// decode it, re-derive its content address and compare it with the entry
// name. opened reports whether the file could be opened at all — a failure
// past that point is the entry's fault and is what quarantine is for. It
// touches neither metrics nor recency: Verify must not disturb the LRU
// order the serving path builds.
func (s *Store) check(fp string) (p *core.Prepared, opened bool, err error) {
	f, err := os.Open(s.path(fp))
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if p, err = core.DecodePrepared(f); err != nil {
		return nil, true, err
	}
	got, err := p.Fingerprint()
	if err != nil {
		return nil, true, err
	}
	if got != fp {
		return nil, true, fmt.Errorf("content address %s does not match entry name", got)
	}
	return p, true, nil
}
