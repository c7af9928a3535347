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
// Accounting: the store/bytes gauge is a running total, not a listing. It
// is the sum of the listing made by the last Open, GC or Verify -fix, plus
// this process's writes and quarantines since. A Put into an unbudgeted
// store lists nothing, so filling a store costs linear, not quadratic,
// directory reads; a budgeted Put still lists and evicts after every write,
// since only that listing sees what other processes sharing the directory
// wrote.
//
// Concurrency: a Store is safe for concurrent use by multiple goroutines,
// and the directory may be shared by multiple processes. The only lock is
// an in-process mutex serializing GC scans, budget enforcement and the
// renames that move the running total; all cross-process coordination
// rides on rename atomicity.
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
	// budget bounds the total entry bytes; 0 disables eviction.
	budget  int64
	metrics *obsv.CounterSet
	// gcMu serializes in-process GC scans with the renames that publish or
	// quarantine an entry, so a scan and a rename never both count one
	// entry's bytes. It deliberately does not cover encoding, decoding or
	// fsyncs: holding a store-wide lock across plan decoding would
	// serialize the warm path.
	gcMu sync.Mutex
	// bytes is the running total behind store/bytes (package doc,
	// "Accounting"). Guarded by gcMu.
	bytes int64
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
	if err := s.rebase(); err != nil {
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
	p, bad, err := s.check(fp)
	if err != nil {
		s.metrics.Add(MetricMisses, 1)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil, ErrNotFound
		case bad == nil:
			return nil, fmt.Errorf("planstore: %w", err)
		}
		if qerr := s.quarantine(fp, bad); qerr != nil {
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

// Put writes p under fp atomically and adds its bytes, less those of the
// entry it replaces, to the store/bytes total. The entry only becomes
// visible under its final name once fully written and synced, so
// concurrent readers and writers — same process or not — never observe a
// torn entry; double-writes of the same fingerprint are idempotent by
// content addressing (last rename wins, both contents are equivalent).
// With a byte budget set, Put then runs GC, which lists the store and
// evicts past the budget; with none, Put lists nothing.
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
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return fmt.Errorf("planstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	if err := s.publish(tmp.Name(), fp, info.Size()); err != nil {
		return fmt.Errorf("planstore: publish: %w", err)
	}
	syncDir(fan)
	s.metrics.Add(MetricWrites, 1)
	if s.budget > 0 {
		if _, _, err := s.GC(); err != nil {
			return fmt.Errorf("planstore: entry stored, but: %w", err)
		}
	}
	return nil
}

// publish renames the written temp file over fp's entry and moves the
// running total by its size, less that of the entry it replaces. Holding
// gcMu across the Lstat, the rename and the add keeps a concurrent GC, Put
// or quarantine from counting either entry twice.
func (s *Store) publish(tmp, fp string, size int64) error {
	final := s.path(fp)
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if old, err := os.Lstat(final); err == nil {
		size -= old.Size()
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	s.setBytes(s.bytes + size)
	return nil
}

// setBytes sets the running total and publishes it. The caller holds gcMu.
func (s *Store) setBytes(total int64) {
	s.bytes = total
	s.metrics.Set(MetricBytes, total)
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
// but never scanned, served or re-validated again, and takes its bytes off
// the running total. bad is the damaged file as check opened it: if a
// writer has since replaced it with a fresh entry, the damage is already
// gone from the serving path and the fresh entry stays where it is.
func (s *Store) quarantine(fp string, bad fs.FileInfo) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	final := s.path(fp)
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if cur, err := os.Lstat(final); err != nil {
		return err
	} else if !os.SameFile(cur, bad) {
		return nil
	}
	if err := os.Rename(final, filepath.Join(qdir, fp+entrySuffix)); err != nil {
		return err
	}
	s.setBytes(s.bytes - bad.Size())
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
// evicted and how many bytes were freed. It re-bases the store/bytes total
// on its listing, so entries other processes wrote or removed count from
// here on; with no budget that is all it does. Put runs it after every
// write only when a budget is set.
func (s *Store) GC() (evicted int, freed int64, err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	entries, err := s.List()
	if err != nil {
		return 0, 0, err
	}
	total := sumBytes(entries)
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
	s.setBytes(total)
	return evicted, freed, nil
}

// rebase sets the store/bytes total to the sum of a fresh listing, without
// enforcing the budget.
func (s *Store) rebase() error {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	entries, err := s.List()
	if err != nil {
		return err
	}
	s.setBytes(sumBytes(entries))
	return nil
}

func sumBytes(entries []Entry) int64 {
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	return total
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
		_, bad, err := s.check(e.Fingerprint)
		if err == nil {
			continue
		}
		if fix && bad != nil {
			if qerr := s.quarantine(e.Fingerprint, bad); qerr != nil {
				err = fmt.Errorf("%w (quarantine failed: %v)", err, qerr)
			}
		}
		issues = append(issues, Issue{Fingerprint: e.Fingerprint, Err: err})
	}
	if fix && len(issues) > 0 {
		if err := s.rebase(); err != nil {
			return issues, err
		}
	}
	return issues, nil
}

// check is the one verify path, behind Get and Verify: open the entry,
// decode it, re-derive its content address and compare it with the entry
// name. A failure past the open is the entry's fault and is what
// quarantine is for: bad is then the opened file's Stat, nil when the file
// could not be opened or stat'ed at all. It touches neither metrics nor
// recency: Verify must not disturb the LRU order the serving path builds.
func (s *Store) check(fp string) (p *core.Prepared, bad fs.FileInfo, err error) {
	f, err := os.Open(s.path(fp))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if p, err = core.DecodePrepared(f); err == nil {
		var got string
		if got, err = p.Fingerprint(); err == nil && got != fp {
			err = fmt.Errorf("content address %s does not match entry name", got)
		}
	}
	if err != nil {
		bad, _ = f.Stat() // nil when the stat fails too
		return nil, bad, err
	}
	return p, nil, nil
}
