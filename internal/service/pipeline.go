package service

import (
	"context"
	"fmt"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
)

// The request pipeline (docs/SERVICE.md "Request pipeline"). Every multiply,
// whichever entry point it came through, is a lane: it is validated,
// admitted, resolved to a prepared plan and parked in a coalescer; the
// coalescer launches groups of same-fingerprint lanes; runGroup executes a
// group and delivers each lane's outcome. Multiply, MultiplySubmit and
// MultiplyBatch differ only in how lanes enter and how the caller waits.

// lane is one value set parked in a coalescer: the plan it resolved to, its
// values, what it asked for, and the callback that receives its outcome
// exactly once, on the group's goroutine.
type lane struct {
	prep     *core.Prepared
	a, b     *matrix.Sparse
	trace    bool
	hit      bool
	enqueued time.Time
	deliver  func(*MultiplyResponse, error)
}

// supportOf is Sparse.Support tolerating a nil matrix, so validate sees
// missing operands as nil supports.
func supportOf(m *matrix.Sparse) *matrix.Support {
	if m == nil {
		return nil
	}
	return m.Support()
}

// sameStructure reports whether two value matrices store the same positions,
// by walking their sorted rows in tandem: what comparing the fingerprints of
// their supports decides, without building or hashing either.
func sameStructure(a, b *matrix.Sparse) bool {
	if a.N != b.N || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, row := range a.Rows {
		if len(row) != len(b.Rows[i]) {
			return false
		}
		for k, c := range row {
			if c.Col != b.Rows[i][k].Col {
				return false
			}
		}
	}
	return true
}

// validate is the one nil/dimension check behind every request kind: what
// prefixes the message (a lane index, or nothing) and needs names the
// operands a complete request carries.
func validate(what, needs string, ahat, bhat, xhat *matrix.Support) error {
	if ahat == nil || bhat == nil || xhat == nil {
		return fmt.Errorf("%w: %s%s", ErrInvalid, what, needs)
	}
	if ahat.N != bhat.N || ahat.N != xhat.N {
		return fmt.Errorf("%w: %sdimension mismatch %d/%d/%d", ErrInvalid, what, ahat.N, bhat.N, xhat.N)
	}
	return nil
}

// enter takes n lanes of one structure through the stages every multiply
// shares: admission, plan resolution, park. park hands the resolved plan's
// lanes to a coalescer without blocking. The admitted slot is held across
// plan resolution only — a miss compiles, which is work — and released on
// return, before any caller waits: the launched group takes its own slot,
// so k coalesced lanes cost one worker and no caller holds a slot while its
// group waits for one. Counters are in lanes.
func (s *Server) enter(ctx context.Context, n int64, ahat, bhat, xhat *matrix.Support, opts core.Options,
	park func(fp string, prep *core.Prepared, hit bool) error) error {
	release, err := s.admit(ctx, n)
	if err != nil {
		return err
	}
	defer release()
	prep, fp, hit, err := s.prepared(ahat, bhat, xhat, opts)
	if err != nil {
		s.metrics.Add(MetricErrors, n)
		return err
	}
	if err := park(fp, prep, hit); err != nil {
		// Only Close makes a coalescer refuse work: the server is draining,
		// which to the caller is indistinguishable from load shedding.
		s.metrics.Add(MetricShed, n)
		return ErrOverloaded
	}
	return nil
}

// submit is the one way a value set reaches a plan: validate, then enter the
// pipeline as a single lane keyed by its plan fingerprint. A nil return
// means deliver will be called exactly once with the outcome; an error means
// the lane was rejected before parking and deliver never runs.
func (s *Server) submit(ctx context.Context, req *MultiplyRequest, deliver func(*MultiplyResponse, error)) error {
	ahat, bhat := supportOf(req.A), supportOf(req.B)
	if err := validate("", "multiply needs A, B and Xhat", ahat, bhat, req.Xhat); err != nil {
		return err
	}
	return s.enter(ctx, 1, ahat, bhat, req.Xhat, req.Options, func(fp string, prep *core.Prepared, hit bool) error {
		return s.coal.Submit(fp, &lane{
			prep: prep, a: req.A, b: req.B, trace: req.Trace, hit: hit,
			enqueued: time.Now(), deliver: deliver,
		})
	})
}

// await blocks until done closes or ctx ends, capped at Config.Deadline when
// ctx carries no earlier deadline. Giving up does not abort the group: the
// lane still executes and is counted where it ends, in runGroup.
func (s *Server) await(ctx context.Context, done <-chan struct{}) error {
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// faultBudget is how many times an execution that fails with a typed network
// fault (lbm.ErrFault) is retried before the fault goes to the caller.
const faultBudget = 1

// runGroup executes one launched group — the coalescers' run callback, on
// its own goroutine. It takes a single worker slot for the whole group, runs
// the lanes under the fault policy and delivers every lane's outcome. It is
// the only caller of the prepared plan's Multiply methods and the only place
// a multiply is counted served or, past plan resolution, failed.
//
// Fault policy: an attempt that fails with a typed network fault
// (serve/faults) is retried faultBudget times (serve/retries); a fault
// that survives the budget goes to every lane with its provenance intact.
// Lanes share every round, so a fault fails the whole group. Non-fault
// errors are never retried.
func (s *Server) runGroup(fp string, lanes []*lane, why batch.Reason) {
	k := int64(len(lanes))
	now := time.Now()
	var wait time.Duration
	for _, ln := range lanes {
		wait += now.Sub(ln.enqueued)
	}
	s.metrics.Add(MetricBatchWaitNs, wait.Nanoseconds())
	s.metrics.Add(MetricBatchLaunch+string(why), 1)
	if s.ctrl != nil {
		s.ctrl.Observe(fp, len(lanes), why)
	}
	s.workers <- struct{}{}
	s.metrics.Set(MetricActiveWorkers, s.active.Add(1))
	defer s.release()
	s.batchHist.Observe(k)
	s.metrics.Set(MetricBatchLanes, s.laneCount.Add(k))
	defer func() { s.metrics.Set(MetricBatchLanes, s.laneCount.Add(-k)) }()

	// Lanes grouped on one fingerprint share the structure, so any lane's
	// prepared plan serves the whole group.
	prep := lanes[0].prep
	trace := false
	as := make([]*matrix.Sparse, len(lanes))
	bs := make([]*matrix.Sparse, len(lanes))
	for i, ln := range lanes {
		as[i], bs[i] = ln.a, ln.b
		trace = trace || ln.trace
	}
	var (
		outs []*matrix.Sparse
		rep  *core.Report
		err  error
	)
	for attempt := 0; ; attempt++ {
		opts := core.ExecOpts{Trace: trace}
		if s.cfg.FaultInjector != nil {
			opts.Injector = s.cfg.FaultInjector(attempt)
		}
		outs, rep, err = prep.MultiplyBatch(as, bs, opts)
		if err == nil || !lbm.IsFault(err) {
			break
		}
		s.metrics.Add(MetricFaults, 1)
		if attempt >= faultBudget {
			break
		}
		s.metrics.Add(MetricRetries, 1)
	}
	if err != nil {
		s.metrics.Add(MetricErrors, k)
		for _, ln := range lanes {
			ln.deliver(nil, err)
		}
		return
	}
	// The report and profile are shared by the group's lanes (the group
	// really did execute once); they are read-only after delivery.
	var profile *obsv.Export
	if rep.Profile != nil {
		profile = rep.Profile.Export()
	}
	s.metrics.Add(MetricServed, k)
	for i, ln := range lanes {
		resp := &MultiplyResponse{X: outs[i], Report: rep, Fingerprint: fp, CacheHit: ln.hit}
		if ln.trace {
			resp.Profile = profile
		}
		ln.deliver(resp, nil)
	}
}

// Multiply serves one multiplication: submit the lane, then wait for its
// outcome until the caller's context, or Config.Deadline, ends.
func (s *Server) Multiply(ctx context.Context, req *MultiplyRequest) (*MultiplyResponse, error) {
	var (
		resp   *MultiplyResponse
		runErr error
	)
	done := make(chan struct{})
	err := s.submit(ctx, req, func(r *MultiplyResponse, e error) {
		resp, runErr = r, e
		close(done)
	})
	if err == nil {
		err = s.await(ctx, done)
	}
	if err != nil {
		return nil, err
	}
	return resp, runErr
}

// MultiplySubmit is the streaming entry point: it validates, admits and
// plan-resolves the request like Multiply, but instead of waiting it
// registers deliver to be invoked exactly once with the outcome and
// returns. A non-nil return error means the request was rejected
// synchronously (validation, admission, plan failure or a closed server)
// and deliver will never be called.
//
// deliver runs on the group's goroutine and must not block for long — the
// streaming session hands it a bounded outbox sized so that enqueueing a
// result can never stall a worker. Backpressure is admission control: the
// caller's read loop stalls in MultiplySubmit when every worker slot is busy.
func (s *Server) MultiplySubmit(ctx context.Context, req *MultiplyRequest, deliver func(*MultiplyResponse, error)) error {
	if deliver == nil {
		return fmt.Errorf("%w: submit needs a deliver callback", ErrInvalid)
	}
	return s.submit(ctx, req, deliver)
}

// BatchLane is one value set of an explicit batched multiply.
type BatchLane struct {
	A, B *matrix.Sparse
}

// MultiplyBatchRequest is an explicit batched multiplication: k value sets
// over one shared sparsity structure, executed as a single group (no
// coalescing delay — the caller already assembled the batch).
type MultiplyBatchRequest struct {
	Lanes []BatchLane
	Xhat  *matrix.Support
	// Options select the plan as in core.Prepare.
	Options core.Options
	// Trace records the batch's execution profile into the response.
	Trace bool
}

// MultiplyBatchResponse carries the per-lane products and the shared batch
// report (Report.Lanes = k; Stats are per-batch, not per-lane).
type MultiplyBatchResponse struct {
	X           []*matrix.Sparse
	Report      *core.Report
	Fingerprint string
	CacheHit    bool
	Profile     *obsv.Export
}

// MultiplyBatch serves an explicit batch: every lane must share lane 0's
// sparsity structure (same plan fingerprint). The batch is admitted once,
// resolves its plan once and enters the pipeline as one ready-made group of
// k lanes, launched at once whatever the batching policy.
func (s *Server) MultiplyBatch(ctx context.Context, req *MultiplyBatchRequest) (*MultiplyBatchResponse, error) {
	k := len(req.Lanes)
	if k == 0 || req.Xhat == nil {
		return nil, fmt.Errorf("%w: batch multiply needs lanes and Xhat", ErrInvalid)
	}
	first := req.Lanes[0]
	ahat0, bhat0 := supportOf(first.A), supportOf(first.B)
	if err := validate("lane 0: ", "missing A or B", ahat0, bhat0, req.Xhat); err != nil {
		return nil, err
	}
	for l := 1; l < k; l++ {
		bl := req.Lanes[l]
		if bl.A == nil || bl.B == nil {
			return nil, fmt.Errorf("%w: lane %d: missing A or B", ErrInvalid, l)
		}
		if !sameStructure(bl.A, first.A) || !sameStructure(bl.B, first.B) {
			return nil, fmt.Errorf("%w: lane %d: structure differs from lane 0 (batched lanes must share one plan)",
				ErrInvalid, l)
		}
	}
	out := &MultiplyBatchResponse{X: make([]*matrix.Sparse, k)}
	var runErr error
	left := k
	done := make(chan struct{})
	err := s.enter(ctx, int64(k), ahat0, bhat0, req.Xhat, req.Options, func(fp string, prep *core.Prepared, hit bool) error {
		now := time.Now()
		lanes := make([]*lane, k)
		for i, bl := range req.Lanes {
			i := i
			lanes[i] = &lane{
				prep: prep, a: bl.A, b: bl.B, trace: req.Trace, hit: hit, enqueued: now,
				// One group delivers its lanes in turn on one goroutine, so the
				// shared state below needs no lock.
				deliver: func(r *MultiplyResponse, e error) {
					if e != nil {
						runErr = e
					} else {
						out.X[i] = r.X
						out.Report, out.Fingerprint, out.CacheHit, out.Profile = r.Report, r.Fingerprint, r.CacheHit, r.Profile
					}
					if left--; left == 0 {
						close(done)
					}
				},
			}
		}
		return s.explicit.Submit(fp, lanes)
	})
	if err == nil {
		err = s.await(ctx, done)
	}
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}
