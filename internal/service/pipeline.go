package service

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"lbmm/internal/batch"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// The request pipeline (docs/SERVICE.md "Request pipeline"). Every multiply,
// whichever entry point it came through, is a lane: it is listed (its
// structure once, its values in listing order), admitted, resolved to a
// prepared plan and parked in a coalescer; the coalescer launches groups of
// same-fingerprint lanes; runGroup executes a group and delivers each
// lane's outcome. Multiply, MultiplySubmit, multiplyBatch and the handlers
// differ only in how lanes enter and how the caller waits.

// lane is one value set parked in a coalescer: the plan it resolved to, its
// values in the plan's listing order, the slice its product is written
// into, what it asked for, and the callback that receives its outcome
// exactly once, on the group's goroutine.
type lane struct {
	// ctx is the submitter's context; Launch tells a session's lanes from
	// everyone else's by it.
	ctx     context.Context
	prep    *core.Prepared
	a, b, x []ring.Value
	// slab holds a, b and x when the lane copied its values (MultiplySubmit);
	// its response hands it back to slabPool through Recycle.
	slab     *[]ring.Value
	trace    bool
	hit      bool
	enqueued time.Time
	deliver  func(*MultiplyResponse, error)
}

// validate is the one nil/dimension check behind every structure request:
// what prefixes the message (a lane index, or nothing) and needs names the
// operands a complete request carries.
func validate(what, needs string, ahat, bhat, xhat *matrix.Support) error {
	if ahat == nil || bhat == nil || xhat == nil {
		return fmt.Errorf("%w: %s%s", ErrInvalid, what, needs)
	}
	return sameN(what, ahat.N, bhat.N, xhat.N)
}

func sameN(what string, na, nb, nx int) error {
	if na != nb || na != nx {
		return fmt.Errorf("%w: %sdimension mismatch %d/%d/%d", ErrInvalid, what, na, nb, nx)
	}
	return nil
}

// enter takes n lanes of one listed structure through the stages every
// multiply shares: admission, plan resolution, park. park hands the
// resolved plan's lanes to a coalescer without blocking. The admitted slot
// is held across plan resolution only — a miss compiles, which is work —
// and released on return, before any caller waits: the launched group takes
// its own slot, so k coalesced lanes cost one worker and no caller holds a
// slot while its group waits for one. Counters are in lanes.
func (s *Server) enter(ctx context.Context, n int64, l *core.Listing, opts core.Options,
	park func(fp string, prep *core.Prepared, hit bool) error) error {
	release, err := s.admit(ctx, n)
	if err != nil {
		return err
	}
	defer release()
	prep, fp, hit, err := s.resolve(l, opts)
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

// resolve finds the plan for a listed structure and its fingerprint. A
// memory hit is found by comparison (Cache.Find); only a miss hashes the
// listing with SHA-256, and that fingerprint keys the store tier, the
// compile and the new cache entry. Supports are built only to compile.
func (s *Server) resolve(l *core.Listing, opts core.Options) (*core.Prepared, string, bool, error) {
	if prep, fp, ok := s.cache.Find(l, opts); ok {
		return prep, fp, true, nil
	}
	fp := l.Fingerprint(opts)
	prep, hit, err := s.prepared(fp, l, l.Supports, opts)
	return prep, fp, hit, err
}

// submit is the one way a value set reaches a plan: enter the pipeline as a
// single lane keyed by its plan fingerprint, which it returns. The lane
// reads vr's values until it is delivered, and keep says whether it may
// use vr's own slices, its product landing in vr's X buffer, or copies its
// values into a slab from slabPool. A nil error means deliver will be
// called exactly once with the outcome; an error means the lane was
// rejected before parking and deliver never runs.
func (s *Server) submit(ctx context.Context, vr *ValueRequest, keep bool, deliver func(*MultiplyResponse, error)) (string, error) {
	var key string
	err := s.enter(ctx, 1, &vr.list, vr.opts, func(fp string, prep *core.Prepared, hit bool) error {
		key = fp
		ln := &lane{ctx: ctx, prep: prep, trace: vr.trace, hit: hit, enqueued: time.Now(), deliver: deliver}
		na, nb, nx := len(vr.a), len(vr.b), vr.list.X.Len()
		if keep {
			vr.x = slices.Grow(vr.x[:0], nx)[:nx]
			ln.a, ln.b, ln.x = vr.a, vr.b, vr.x
		} else {
			ln.slab = getSlab(na + nb + nx)
			slab := *ln.slab
			ln.a, ln.b, ln.x = slab[:na:na], slab[na:na+nb:na+nb], slab[na+nb:]
			copy(ln.a, vr.a)
			copy(ln.b, vr.b)
		}
		return s.coal.Submit(fp, ln)
	})
	if err != nil {
		return "", err
	}
	return key, nil
}

// multiply serves one listed value set and waits for its outcome until ctx,
// or Config.Deadline, ends. The lane reads vr's values in place and writes
// its product into vr's X buffer, which the response's Product holds: free
// reports whether vr may be reused once the response is written, which it
// may not when the wait ended before the lane ran.
func (s *Server) multiply(ctx context.Context, vr *ValueRequest) (resp *MultiplyResponse, free bool, err error) {
	var runErr error
	done := make(chan struct{})
	_, err = s.submit(ctx, vr, true, func(r *MultiplyResponse, e error) {
		resp, runErr = r, e
		close(done)
	})
	if err != nil {
		return nil, true, err
	}
	if err := s.await(ctx, done); err != nil {
		return nil, false, err
	}
	return resp, true, runErr
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

// slabPool recycles the value slabs of MultiplySubmit's lanes, A, B and X
// of one lane in one slice: a lane's slab goes back when its response is
// recycled (MultiplyResponse.Recycle), once the caller has written the
// product out. A slab too short for the next lane is dropped, and so is one
// over maxPooledBody bytes, on bodyPool's rule.
var slabPool sync.Pool

// getSlab returns a slab of n values from slabPool, or a new one.
func getSlab(n int) *[]ring.Value {
	if p, _ := slabPool.Get().(*[]ring.Value); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	slab := make([]ring.Value, n)
	return &slab
}

// Recycle hands the storage of the response's product back for a later
// lane: a MultiplySubmit caller calls it once it no longer reads
// Product.Vals, and reads neither afterwards. A response it is never called
// on is simply collected; on a response of any other entry point it does
// nothing.
func (r *MultiplyResponse) Recycle() {
	p := r.slab
	r.slab = nil // a second call must not hand the slab out twice
	if p != nil && cap(*p)*int(unsafe.Sizeof(ring.Value(0))) <= maxPooledBody {
		slabPool.Put(p)
	}
}

// groupScratch is runGroup's lane table, recycled across groups through
// groupPool; it holds no lane's values between groups.
type groupScratch struct{ as, bs, xs [][]ring.Value }

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

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
	g := groupPool.Get().(*groupScratch)
	for _, ln := range lanes {
		g.as, g.bs, g.xs = append(g.as, ln.a), append(g.bs, ln.b), append(g.xs, ln.x)
		trace = trace || ln.trace
	}
	var (
		rep *core.Report
		err error
	)
	for attempt := 0; ; attempt++ {
		opts := core.ExecOpts{Trace: trace}
		if s.cfg.FaultInjector != nil {
			opts.Injector = s.cfg.FaultInjector(attempt)
		}
		rep, err = prep.MultiplyValues(g.as, g.bs, g.xs, opts)
		if err == nil || !lbm.IsFault(err) {
			break
		}
		s.metrics.Add(MetricFaults, 1)
		if attempt >= faultBudget {
			break
		}
		s.metrics.Add(MetricRetries, 1)
	}
	clear(g.as)
	clear(g.bs)
	clear(g.xs)
	g.as, g.bs, g.xs = g.as[:0], g.bs[:0], g.xs[:0]
	groupPool.Put(g)
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
	xhat, r := prep.Xhat(), prep.Options().Ring
	for _, ln := range lanes {
		resp := &MultiplyResponse{Product: Product{Xhat: xhat, Vals: ln.x, Ring: r}, Report: rep, Fingerprint: fp, CacheHit: ln.hit, slab: ln.slab}
		if ln.trace {
			resp.Profile = profile
		}
		ln.deliver(resp, nil)
	}
}

// Multiply serves one multiplication: list the request, submit the lane,
// then wait for its outcome until the caller's context, or Config.Deadline,
// ends. The response carries the product both as X and as Product.
func (s *Server) Multiply(ctx context.Context, req *MultiplyRequest) (*MultiplyResponse, error) {
	vr, err := listMultiply(req)
	if err != nil {
		return nil, err
	}
	resp, _, err := s.multiply(ctx, vr)
	if err != nil {
		return nil, err
	}
	resp.X = resp.Product.Sparse()
	return resp, nil
}

// listMultiply lists a Go caller's request.
func listMultiply(req *MultiplyRequest) (*ValueRequest, error) {
	vr := &ValueRequest{opts: req.Options, trace: req.Trace}
	var err error
	vr.a, vr.b, err = listRequest("", "multiply needs A, B and Xhat", req.A, req.B, req.Xhat, &vr.list)
	return vr, err
}

// MultiplySubmit is the asynchronous entry point, which a stream session
// submits through: it admits and plan-resolves a listed request (ListWire,
// ListWireValues) like Multiply, but instead of waiting it registers
// deliver to be invoked exactly once with the outcome and returns the plan
// fingerprint the lane is parked under — the key Launch takes. The lane
// takes a copy of vr's values, so vr may be reused as soon as it returns;
// the response carries the product as Product, in storage the caller hands
// back with Recycle once it has written the product out. A non-nil return error
// means the request was rejected synchronously (admission, plan failure or
// a closed server) and deliver will never be called.
//
// deliver runs on the group's goroutine and must not block for long — the
// streaming session hands it a bounded outbox sized so that enqueueing a
// result can never stall a worker. Backpressure is admission control: the
// caller's read loop stalls in MultiplySubmit when every worker slot is busy.
func (s *Server) MultiplySubmit(ctx context.Context, vr *ValueRequest, deliver func(*MultiplyResponse, error)) (string, error) {
	if deliver == nil {
		return "", fmt.Errorf("%w: submit needs a deliver callback", ErrInvalid)
	}
	return s.submit(ctx, vr, false, deliver)
}

// Launch starts the lanes parked under fingerprint fp now, without waiting
// out their batch window (batch/launch_drain), if every one of them was
// submitted under ctx: the streaming session calls it with its own context
// once it has read every byte its client sent, when no lane-mate can be on
// its way from it. A group that also holds another submitter's lane keeps
// its window: that submitter may still be sending. ctx is compared with ==,
// so its type must be comparable, as every context the context package
// returns is. Nothing parked under fp is a no-op.
func (s *Server) Launch(ctx context.Context, fp string) {
	s.coal.Launch(fp, func(ln *lane) bool { return ln.ctx == ctx })
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
	Products    []Product
	Report      *core.Report
	Fingerprint string
	CacheHit    bool
	Profile     *obsv.Export
}

// multiplyBatch serves an explicit batch (POST /v1/multiply/batch): every
// lane must share lane 0's sparsity structure (same plan fingerprint). Every
// lane is listed, and a lane whose listing is not lane 0's is refused. The
// batch is admitted once, resolves its plan once and enters the pipeline as
// one ready-made group of k lanes, launched at once whatever the batching
// policy.
func (s *Server) multiplyBatch(ctx context.Context, req *MultiplyBatchRequest) (*MultiplyBatchResponse, error) {
	k := len(req.Lanes)
	if k == 0 || req.Xhat == nil {
		return nil, fmt.Errorf("%w: batch multiply needs lanes and Xhat", ErrInvalid)
	}
	var list, other core.Listing
	as, bs := make([][]ring.Value, k), make([][]ring.Value, k)
	first := req.Lanes[0]
	var err error
	if as[0], bs[0], err = listRequest("lane 0: ", "missing A or B", first.A, first.B, req.Xhat, &list); err != nil {
		return nil, err
	}
	for l := 1; l < k; l++ {
		bl := req.Lanes[l]
		if bl.A == nil || bl.B == nil {
			return nil, fmt.Errorf("%w: lane %d: missing A or B", ErrInvalid, l)
		}
		other.Reset(list.N)
		var okA, okB bool
		as[l], okA = other.A.AddSparse(bl.A, nil)
		bs[l], okB = other.B.AddSparse(bl.B, nil)
		if !okA || !okB {
			return nil, fmt.Errorf("%w: lane %d: a value row is not strictly ascending in [0, %d)", ErrInvalid, l, bl.A.N)
		}
		if bl.A.N != list.N || bl.B.N != list.N || !other.A.Equal(&list.A) || !other.B.Equal(&list.B) {
			return nil, fmt.Errorf("%w: lane %d: structure differs from lane 0 (batched lanes must share one plan)",
				ErrInvalid, l)
		}
	}
	out := &MultiplyBatchResponse{Products: make([]Product, k)}
	var runErr error
	left := k
	done := make(chan struct{})
	err = s.enter(ctx, int64(k), &list, req.Options, func(fp string, prep *core.Prepared, hit bool) error {
		now := time.Now()
		lanes := make([]*lane, k)
		nx := list.X.Len()
		xs := make([]ring.Value, k*nx)
		for i := range lanes {
			i := i
			lanes[i] = &lane{
				prep: prep, a: as[i], b: bs[i], x: xs[i*nx : (i+1)*nx : (i+1)*nx],
				trace: req.Trace, hit: hit, enqueued: now,
				// One group delivers its lanes in turn on one goroutine, so the
				// shared state below needs no lock.
				deliver: func(r *MultiplyResponse, e error) {
					if e != nil {
						runErr = e
					} else {
						out.Products[i] = r.Product
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
