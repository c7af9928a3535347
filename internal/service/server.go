package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/control"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
)

// ErrOverloaded is returned (and mapped to HTTP 503) when the server sheds
// a request because the admission queue is full. Callers should back off
// and retry; the request was rejected before any work happened.
var ErrOverloaded = errors.New("service: overloaded, request shed")

// ErrInvalid is wrapped by every request-validation failure (and mapped to
// HTTP 400): malformed requests are the caller's fault, not the server's,
// and retrying them unchanged cannot succeed.
var ErrInvalid = errors.New("service: invalid request")

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// CacheSize bounds the number of prepared plans kept (default 128).
	CacheSize int
	// CacheBytes additionally bounds the total compiled size of the cached
	// plans (Prepared.CompiledBytes); 0 disables the byte bound.
	CacheBytes int64
	// Workers bounds concurrent plan executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// before new ones are shed with ErrOverloaded (default 4×Workers).
	QueueDepth int
	// Deadline caps each wait of a request — for a worker slot in the
	// admission queue and, for a synchronous caller, for its parked lane's
	// outcome — when the caller's context carries no earlier deadline
	// (default 30s). Plan execution itself is not preempted; the deadline is
	// admission control, not a watchdog.
	Deadline time.Duration
	// FaultInjector, when non-nil, supplies the fault injector for each
	// execution attempt — the hook chaos drills use to exercise the retry
	// path on a live server. attempt counts from zero across one group. A
	// nil return runs that attempt on a perfect network.
	FaultInjector func(attempt int) lbm.Injector
	// BatchSize enables dynamic batching when > 1: /v1/multiply requests
	// sharing one plan fingerprint coalesce into lanes of a single batched
	// run, at most BatchSize lanes per run (default 0: batching off).
	BatchSize int
	// BatchDelay bounds how long a request waits for lane-mates before its
	// batch launches anyway (default 2ms when batching is on). Negative
	// values are rejected by Validate — silently clamping would turn an
	// operator typo into batching being quietly disabled.
	BatchDelay time.Duration
	// BatchAdaptive replaces the static BatchSize/BatchDelay launch policy
	// with the per-fingerprint controller (internal/control): BatchSize
	// becomes the lane cap a hot fingerprint grows toward and BatchDelay the
	// window ceiling, while cold fingerprints launch immediately and delay
	// is shed under light load. Implies batching: a zero BatchSize defaults
	// to 16 lanes. Decisions are exported as control/* counters on Metrics.
	BatchAdaptive bool
	// Metrics receives the service counters; a fresh set when nil.
	Metrics *obsv.CounterSet
	// Store, when non-nil, adds a persistent second cache tier behind the
	// in-memory one: on a memory miss the fingerprint is looked up in the
	// store, and a decoded entry is re-registered without recompiling; only
	// a miss in both tiers compiles (counted as serve/compiles), with the
	// fresh plan written back asynchronously. Open it over the same metrics
	// set so the store/* counters land beside the serve/* ones.
	Store *planstore.Store
}

// Validate rejects configurations that are contradictions rather than
// omissions (omitted knobs get defaults; nonsense knobs get errors).
// NewServer panics on an invalid config — call Validate first when the
// values come from flags or the environment.
func (c Config) Validate() error {
	if c.BatchDelay < 0 {
		return fmt.Errorf("service: batch delay must be >= 0, got %s", c.BatchDelay)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("service: batch size must be >= 0, got %d", c.BatchSize)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("service: cache byte bound must be >= 0 (0 disables it), got %d", c.CacheBytes)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.BatchAdaptive && c.BatchSize <= 1 {
		c.BatchSize = 16
	}
	if c.BatchSize > 1 && c.BatchDelay == 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewCounterSet()
	}
	return c
}

// Counter names published by the server.
const (
	MetricRequests         = "serve/requests"
	MetricServed           = "serve/served"
	MetricShed             = "serve/shed"
	MetricDeadlineExceeded = "serve/deadline_exceeded"
	MetricCanceled         = "serve/canceled"
	MetricErrors           = "serve/errors"
	MetricFaults           = "serve/faults"
	MetricRetries          = "serve/retries"
	MetricQueueDepth       = "serve/queue_depth" // gauge
	MetricActiveWorkers    = "serve/active"      // gauge
	// MetricCompiles counts plans compiled from structure — misses of every
	// cache tier. A warm restart against a populated store serves its whole
	// working set with this counter at zero.
	MetricCompiles = "serve/compiles"

	// Batching metrics (docs/SERVICE.md "Batching"). MetricBatchSize is a
	// histogram prefix: the counter set carries batch/size/le_N cumulative
	// buckets plus batch/size/count and batch/size/sum.
	MetricBatchSize   = "batch/size"
	MetricBatchLanes  = "batch/lanes"   // gauge: lanes executing right now
	MetricBatchWaitNs = "batch/wait_ns" // total ns lanes spent waiting to launch
	MetricBatchLaunch = "batch/launch_" // + reason: full|timeout|immediate|flush|shrink|drain

	// MetricGoroutines is a scrape-time gauge of the process goroutine
	// count — the streaming soak drill asserts it stays bounded while
	// hundreds of lanes are in flight (no per-request parking).
	MetricGoroutines = "go/goroutines"
)

// Server serves multiplications from a prepared-plan cache behind a bounded
// worker pool. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *obsv.CounterSet
	workers chan struct{}
	queued  atomic.Int64
	active  atomic.Int64

	// The lane pipeline (pipeline.go): every multiply parks in coal keyed by
	// its plan fingerprint — under the immediate policy when batching is off
	// — and runGroup executes each launched group on one worker slot.
	// explicit carries the ready-made groups of multiplyBatch, always under
	// the immediate policy. ctrl is non-nil only under BatchAdaptive: it
	// decides each key's launch policy and is fed every launch outcome.
	coal      *batch.Coalescer[*lane]
	explicit  *batch.Coalescer[[]*lane]
	ctrl      *control.Controller
	batchHist *obsv.Histogram
	laneCount atomic.Int64

	// storeWG tracks asynchronous plan-store write-backs so Close can drain
	// them: a server shutting down right after compiling must not lose the
	// write that would make the next process start warm.
	storeWG sync.WaitGroup
}

// NewServer builds a server from the config. It panics if the config fails
// Validate — call Validate first for flag- or environment-sourced values.
func NewServer(cfg Config) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCacheBytes(cfg.CacheSize, cfg.CacheBytes, cfg.Metrics),
		metrics: cfg.Metrics,
		workers: make(chan struct{}, cfg.Workers),
	}
	s.batchHist = obsv.NewHistogram(cfg.Metrics, MetricBatchSize, []int64{1, 2, 4, 8, 16, 32, 64})
	// BatchSize <= 1 is the coalescer's immediate policy: every lane launches
	// at once, alone.
	bcfg := batch.Config{MaxBatch: cfg.BatchSize, MaxDelay: cfg.BatchDelay}
	if cfg.BatchAdaptive {
		s.ctrl = control.New(control.Config{
			MaxBatch: cfg.BatchSize,
			MaxDelay: cfg.BatchDelay,
			Metrics:  cfg.Metrics,
		})
		bcfg.Decide = s.ctrl.Decide
	}
	s.coal = batch.New(bcfg, s.runGroup)
	s.explicit = batch.New(batch.Config{}, func(fp string, groups [][]*lane, why batch.Reason) {
		s.runGroup(fp, groups[0], why)
	})
	return s
}

// Close drains the server: parked groups launch at once, every in-flight
// lane finishes and is delivered, later multiplies from any entry point are
// shed with ErrOverloaded, and every asynchronous plan-store write-back
// completes.
func (s *Server) Close() {
	s.coal.Close()
	s.explicit.Close()
	s.storeWG.Wait()
}

// Cache exposes the server's plan cache (read-mostly introspection).
func (s *Server) Cache() *Cache { return s.cache }

// Metrics returns a snapshot of every service counter. The queue-depth and
// active-worker gauges are overlaid from the live atomics at scrape time:
// the in-flight Sets are best-effort (a delayed write can land out of
// order), but a scrape always publishes the current values.
func (s *Server) Metrics() map[string]int64 {
	m := s.metrics.Snapshot()
	m[MetricQueueDepth] = s.queued.Load()
	m[MetricActiveWorkers] = s.active.Load()
	m[MetricGoroutines] = int64(runtime.NumGoroutine())
	return m
}

// Config returns the resolved (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// admit applies admission control: a request that can take a worker slot
// immediately is admitted without ever counting as a waiter; otherwise it
// joins the bounded queue and blocks until a slot frees or its context
// expires. Only genuine waiters count against QueueDepth, so a burst on an
// idle server is never shed while slots are free. On success the returned
// release function must be called when the request finishes. lanes is what
// the request counts for in serve/requests and in the counter it ends in (a
// batch of k is k); it takes one slot whatever it counts for.
func (s *Server) admit(ctx context.Context, lanes int64) (release func(), err error) {
	s.metrics.Add(MetricRequests, lanes)
	select {
	case s.workers <- struct{}{}:
		s.metrics.Set(MetricActiveWorkers, s.active.Add(1))
		return s.release, nil
	default:
	}
	// All workers are busy: this request is a waiter. Gauges are set from
	// the atomic result of the same Add, not a separate Load, so concurrent
	// admissions cannot publish a stale depth over a fresher one.
	q := s.queued.Add(1)
	if q > int64(s.cfg.QueueDepth) {
		s.metrics.Set(MetricQueueDepth, s.queued.Add(-1))
		s.metrics.Add(MetricShed, lanes)
		return nil, ErrOverloaded
	}
	s.metrics.Set(MetricQueueDepth, q)
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	select {
	case s.workers <- struct{}{}:
		s.metrics.Set(MetricQueueDepth, s.queued.Add(-1))
		s.metrics.Set(MetricActiveWorkers, s.active.Add(1))
		return s.release, nil
	case <-ctx.Done():
		s.metrics.Set(MetricQueueDepth, s.queued.Add(-1))
		if errors.Is(ctx.Err(), context.Canceled) {
			s.metrics.Add(MetricCanceled, lanes)
		} else {
			s.metrics.Add(MetricDeadlineExceeded, lanes)
		}
		return nil, ctx.Err()
	}
}

// release returns a worker slot taken by admit.
func (s *Server) release() {
	<-s.workers
	s.metrics.Set(MetricActiveWorkers, s.active.Add(-1))
}

// prepared resolves the plan with fingerprint fp through the cache tiers —
// in-memory first, then the persistent store, compiling from structure only
// when both miss — returning the plan and whether it was served without
// compiling (either tier hit). l lists the structure fp was taken of, and a
// newly cached plan is indexed under it (Cache.Get). supports builds the
// structure to compile from; it is called only on that double miss.
//
// The in-memory tier's singleflight covers both lower tiers: concurrent
// requests for one fingerprint share a single store read or compile. A
// fresh compile is written back to the store asynchronously (the request
// does not wait on disk); Close drains those writes. Store read errors are
// deliberately not fatal — a damaged or cross-version entry was already
// quarantined by the store, and the request falls through to a compile
// exactly as if the tier had missed.
func (s *Server) prepared(fp string, l *core.Listing, supports func() (ahat, bhat, xhat *matrix.Support, err error), opts core.Options) (*core.Prepared, bool, error) {
	storeHit := false
	prep, hit, err := s.cache.Get(fp, l, opts, func() (*core.Prepared, error) {
		if s.cfg.Store != nil {
			if p, err := s.cfg.Store.Get(fp); err == nil {
				storeHit = true
				return p, nil
			}
		}
		s.metrics.Add(MetricCompiles, 1)
		ahat, bhat, xhat, err := supports()
		if err != nil {
			return nil, err
		}
		p, err := core.Prepare(ahat, bhat, xhat, opts)
		if err == nil && s.cfg.Store != nil {
			s.storeWG.Add(1)
			go func() {
				defer s.storeWG.Done()
				// Best-effort: a failed write-back costs the next process a
				// recompile, nothing else.
				_ = s.cfg.Store.Put(fp, p)
			}()
		}
		return p, err
	})
	if err != nil {
		return nil, false, err
	}
	return prep, hit || storeHit, nil
}

// MultiplyRequest is one serving-layer multiplication: values A and B, the
// output support of interest, and the plan options. The sparsity structure
// of the request is (A.Support(), B.Support(), Xhat) — two requests share a
// cached plan exactly when those structures, the ring, the algorithm and
// the resolved d coincide.
type MultiplyRequest struct {
	A, B *matrix.Sparse
	Xhat *matrix.Support
	// Options: Ring, D and Algorithm select the plan as in core.Prepare
	// ("auto", "trivial", "lemma31" or "theorem42"; the execution-engine and
	// verification fields are ignored by the serving layer).
	Options core.Options
	// Trace records a per-request execution profile into the response.
	Trace bool
}

// MultiplyResponse carries the product and how it was served.
type MultiplyResponse struct {
	// X is the product as a matrix, set by Multiply, the entry point that
	// takes matrices.
	X *matrix.Sparse
	// Product is the product as the pipeline computed it, values over the
	// plan's output support; the wire writers append it directly.
	Product     Product
	Report      *core.Report
	Fingerprint string
	// CacheHit reports whether a ready prepared plan existed on arrival.
	CacheHit bool
	// Profile is the lbmm.trace.v1 export of this execution when Trace was
	// requested.
	Profile *obsv.Export
	// slab is the lane storage Product.Vals lies in when it came from
	// slabPool (MultiplySubmit); Recycle hands it back.
	slab *[]ring.Value
}

// PrepareRequest warms the cache for an explicit structure (no values).
type PrepareRequest struct {
	Ahat, Bhat, Xhat *matrix.Support
	Options          core.Options
}

// PrepareResponse reports the cached plan's identity and classification.
type PrepareResponse struct {
	Fingerprint string
	CacheHit    bool
	Classes     [3]matrix.Class
	Band        core.Band
	D           int
}

// Prepare compiles (or finds) the plan for a structure so later Multiply
// calls with matching values start hot.
func (s *Server) Prepare(ctx context.Context, req *PrepareRequest) (*PrepareResponse, error) {
	if err := validate("", "prepare needs Ahat, Bhat and Xhat", req.Ahat, req.Bhat, req.Xhat); err != nil {
		return nil, err
	}
	release, err := s.admit(ctx, 1)
	if err != nil {
		return nil, err
	}
	defer release()
	l := core.ListSupports(req.Ahat, req.Bhat, req.Xhat)
	fp := l.Fingerprint(req.Options)
	prep, hit, err := s.prepared(fp, l, func() (ahat, bhat, xhat *matrix.Support, err error) {
		return req.Ahat, req.Bhat, req.Xhat, nil
	}, req.Options)
	if err != nil {
		s.metrics.Add(MetricErrors, 1)
		return nil, err
	}
	s.metrics.Add(MetricServed, 1)
	return &PrepareResponse{
		Fingerprint: fp, CacheHit: hit,
		Classes: prep.Classes, Band: prep.Band, D: prep.D,
	}, nil
}

// ClassifyRequest asks for the Table 2 classification of a structure.
type ClassifyRequest struct {
	Ahat, Bhat, Xhat *matrix.Support
	D                int
}

// ClassifyResponse is the classification with its Table 2 bounds.
type ClassifyResponse struct {
	Classes      [3]matrix.Class
	Band         core.Band
	D            int
	Upper, Lower string
}

// Classify runs the classification engine. It goes through admission
// control like every other request: class predicates (degeneracy orders in
// particular) are support-sized work, not constant-time.
func (s *Server) Classify(ctx context.Context, req *ClassifyRequest) (*ClassifyResponse, error) {
	if err := validate("", "classify needs Ahat, Bhat and Xhat", req.Ahat, req.Bhat, req.Xhat); err != nil {
		return nil, err
	}
	release, err := s.admit(ctx, 1)
	if err != nil {
		return nil, err
	}
	defer release()
	d := core.ResolveD(req.D, req.Ahat, req.Bhat, req.Xhat)
	var classes [3]matrix.Class
	classes[0] = req.Ahat.Classify(d)
	classes[1] = req.Bhat.Classify(d)
	classes[2] = req.Xhat.Classify(d)
	band := core.Classify(classes[0], classes[1], classes[2])
	up, lo := band.Bounds()
	s.metrics.Add(MetricServed, 1)
	return &ClassifyResponse{Classes: classes, Band: band, D: d, Upper: up, Lower: lo}, nil
}
