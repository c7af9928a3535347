package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestConfigValidate pins the config-validation contract: negative batch
// delay, batch size and cache byte bound are rejected; valid configs
// (including the zero value) pass.
func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{BatchDelay: -time.Millisecond},
		{BatchSize: -1},
		{CacheBytes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v passed validation", bad)
		}
	}
	for _, ok := range []Config{
		{},
		{BatchSize: 16, BatchDelay: time.Millisecond},
		{CacheBytes: 0}, // 0 disables the byte bound, it is not "no space"
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", ok, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewServer accepted a negative batch delay")
		}
	}()
	NewServer(Config{BatchDelay: -time.Second})
}

// TestServerBatchCoalesce is the tentpole's serving-layer acceptance: k
// concurrent same-structure requests on a batching server coalesce into
// one batched run, every caller gets its own correct product, and the
// batch metrics record one full launch of k lanes.
func TestServerBatchCoalesce(t *testing.T) {
	const k = 4
	var srv *Server
	srv = NewServer(Config{
		CacheSize:  4,
		Workers:    k,
		BatchSize:  k,
		BatchDelay: 500 * time.Millisecond, // the size trigger should win
		// The injector hook runs inside the launched group: once the last
		// submitter has let go of its admission slot, the k lanes must be
		// executing on exactly one worker slot.
		FaultInjector: func(int) lbm.Injector {
			for i := 0; srv.active.Load() != 1 && i < 2000; i++ {
				time.Sleep(time.Millisecond)
			}
			if active, lanes := srv.active.Load(), srv.laneCount.Load(); active != 1 || lanes != k {
				t.Errorf("group executing with %d worker slots taken and %d lanes, want 1 slot for %d lanes", active, lanes, k)
			}
			return nil
		},
	})
	defer srv.Close()
	ctx := context.Background()
	r := ring.Counting{}
	inst := workload.Blocks(32, 4)
	opts := core.Options{Ring: r}

	// Warm the cache so every lane resolves the same prepared plan and the
	// requests differ only in values.
	if _, err := srv.Prepare(ctx, &PrepareRequest{Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: opts}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := matrix.Random(inst.Ahat, r, int64(10*i+1))
			b := matrix.Random(inst.Bhat, r, int64(10*i+2))
			resp, err := srv.Multiply(ctx, &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: opts})
			if err != nil {
				errs[i] = err
				return
			}
			if want := matrix.MulReference(a, b, inst.Xhat); !matrix.Equal(resp.X, want) {
				errs[i] = errors.New("wrong product")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	m := srv.Metrics()
	if m[MetricBatchSize+"/count"] != 1 || m[MetricBatchSize+"/sum"] != k {
		t.Errorf("batch size histogram: count=%d sum=%d, want 1 batch of %d lanes",
			m[MetricBatchSize+"/count"], m[MetricBatchSize+"/sum"], k)
	}
	if m[MetricBatchLaunch+"full"] != 1 {
		t.Errorf("launch_full=%d, want 1 (size trigger)", m[MetricBatchLaunch+"full"])
	}
	if m[MetricServed] != k+1 { // k multiplies + 1 prepare
		t.Errorf("served=%d, want %d", m[MetricServed], k+1)
	}
	if m[MetricBatchWaitNs] <= 0 {
		t.Error("coalesce wait counter never moved")
	}
}

// TestServerBatchTimeoutLaunch pins the delay trigger: a lone request on a
// batching server launches as a 1-lane batch after BatchDelay rather than
// waiting forever for lane-mates.
func TestServerBatchTimeoutLaunch(t *testing.T) {
	srv := NewServer(Config{
		CacheSize:  4,
		BatchSize:  64,
		BatchDelay: 2 * time.Millisecond,
	})
	defer srv.Close()
	req, want := faultReq(ring.Counting{}, 5)
	resp, err := srv.Multiply(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(resp.X, want) {
		t.Error("wrong product")
	}
	m := srv.Metrics()
	if m[MetricBatchLaunch+"timeout"] != 1 {
		t.Errorf("launch_timeout=%d, want 1", m[MetricBatchLaunch+"timeout"])
	}
	if m[MetricBatchSize+"/le_1"] != 1 {
		t.Errorf("le_1=%d, want 1 (single-lane batch)", m[MetricBatchSize+"/le_1"])
	}
}

// TestServerBatchFaultWholeBatch: a chaos fault fails and retries the whole
// batch — one fault and one retry for the group, not per lane — and every
// lane receives its correct product from the retry.
func TestServerBatchFaultWholeBatch(t *testing.T) {
	const k = 3
	srv := NewServer(Config{
		CacheSize:  4,
		BatchSize:  k,
		BatchDelay: 500 * time.Millisecond,
		FaultInjector: func(attempt int) lbm.Injector {
			if attempt == 0 {
				return dropAll()
			}
			return nil
		},
	})
	defer srv.Close()
	ctx := context.Background()
	r := ring.MinPlus{}
	inst := workload.Blocks(16, 4)
	opts := core.Options{Ring: r}
	if _, err := srv.Prepare(ctx, &PrepareRequest{Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: opts}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := matrix.Random(inst.Ahat, r, int64(20*i+1))
			b := matrix.Random(inst.Bhat, r, int64(20*i+2))
			resp, err := srv.Multiply(ctx, &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: opts})
			if err != nil {
				errs[i] = err
				return
			}
			if want := matrix.MulReference(a, b, inst.Xhat); !matrix.Equal(resp.X, want) {
				errs[i] = errors.New("wrong product")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	m := srv.Metrics()
	if m[MetricBatchSize+"/count"] != 1 || m[MetricFaults] != 1 || m[MetricRetries] != 1 {
		t.Errorf("batches=%d faults=%d retries=%d, want 1/1/1 for the whole batch",
			m[MetricBatchSize+"/count"], m[MetricFaults], m[MetricRetries])
	}
}

// TestServerMultiplyBatchExplicit drives the explicit batched API: lanes
// sharing one structure multiply correctly in one run (Report.Lanes = k,
// one round sequence); a lane with a different structure is rejected with
// the lane named.
func TestServerMultiplyBatchExplicit(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4})
	defer srv.Close()
	ctx := context.Background()
	r := ring.Real{}
	inst := workload.Blocks(32, 4)
	opts := core.Options{Ring: r}

	const k = 3
	lanes := make([]BatchLane, k)
	want := make([]*matrix.Sparse, k)
	for i := range lanes {
		a := matrix.Random(inst.Ahat, r, int64(30*i+1))
		b := matrix.Random(inst.Bhat, r, int64(30*i+2))
		lanes[i] = BatchLane{A: a, B: b}
		want[i] = matrix.MulReference(a, b, inst.Xhat)
	}
	resp, err := srv.multiplyBatch(ctx, &MultiplyBatchRequest{Lanes: lanes, Xhat: inst.Xhat, Options: opts, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report.Lanes != k {
		t.Errorf("Report.Lanes = %d, want %d", resp.Report.Lanes, k)
	}
	if resp.Profile == nil {
		t.Error("trace requested but no profile returned")
	}
	for i := range want {
		if !matrix.Equal(resp.Products[i].Sparse(), want[i]) {
			t.Errorf("lane %d: wrong product", i)
		}
	}

	// A lane whose structure differs from lane 0 must be rejected as the
	// caller's error (400), naming the lane.
	other := workload.Blocks(16, 4)
	bad := append([]BatchLane{}, lanes...)
	bad[1] = BatchLane{A: matrix.Random(other.Ahat, r, 1), B: matrix.Random(other.Bhat, r, 2)}
	_, err = srv.multiplyBatch(ctx, &MultiplyBatchRequest{Lanes: bad, Xhat: inst.Xhat, Options: opts})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("mixed-structure batch: err = %v, want ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), "lane 1") {
		t.Errorf("error does not name the offending lane: %v", err)
	}

	// The smallest difference there is: lane 2's B has one entry moved to a
	// free position, everything else — dimensions, counts, A — unchanged.
	moved := lanes[2].B.Clone()
	for i, row := range moved.Rows {
		if k := len(row) - 1; k >= 0 && int(row[k].Col) < moved.N-1 {
			moved.Rows[i][k].Col++
			break
		}
	}
	var movedList, keptList core.RowList
	movedList.AddSparse(moved, nil)
	keptList.AddSparse(lanes[2].B, nil)
	if movedList.Equal(&keptList) || moved.NNZ() != lanes[2].B.NNZ() {
		t.Fatal("test matrix was not moved by exactly one position")
	}
	bad = append([]BatchLane{}, lanes...)
	bad[2] = BatchLane{A: lanes[2].A, B: moved}
	_, err = srv.multiplyBatch(ctx, &MultiplyBatchRequest{Lanes: bad, Xhat: inst.Xhat, Options: opts})
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "lane 2: structure differs from lane 0") {
		t.Fatalf("batch with one moved position in lane 2's B: err = %v, want ErrInvalid naming lane 2", err)
	}
}

// TestServerBatchDrain pins Close's contract: a request parked when the
// server closes is flushed (it completes, it is not lost), and requests
// after Close are shed.
func TestServerBatchDrain(t *testing.T) {
	srv := NewServer(Config{
		CacheSize:  4,
		BatchSize:  64,
		BatchDelay: time.Hour, // only Close can launch it
	})
	req, want := faultReq(ring.Counting{}, 9)
	done := make(chan error, 1)
	go func() {
		resp, err := srv.Multiply(context.Background(), req)
		if err == nil && !matrix.Equal(resp.X, want) {
			err = errors.New("wrong product")
		}
		done <- err
	}()
	// Wait until the request is parked in the coalescer, then drain.
	for i := 0; srv.coal.Pending() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("flushed request: %v", err)
	}
	if m := srv.Metrics(); m[MetricBatchLaunch+"flush"] != 1 {
		t.Errorf("launch_flush=%d, want 1", m[MetricBatchLaunch+"flush"])
	}
	req2, _ := faultReq(ring.Counting{}, 11)
	if _, err := srv.Multiply(context.Background(), req2); !errors.Is(err, ErrOverloaded) {
		t.Errorf("request after Close: err = %v, want ErrOverloaded", err)
	}
}

// TestServerCloseFlushesOpenWindowExactlyOnce parks several same-structure
// requests in an open coalesce window (the delay is an hour; only Close can
// launch them) and closes the server mid-window. Every parked caller must
// get its own correct product — no lane dropped — and the flush must launch
// exactly one batch: launch_flush is 1 and every lane rode in it.
func TestServerCloseFlushesOpenWindowExactlyOnce(t *testing.T) {
	const k = 5
	srv := NewServer(Config{
		CacheSize:  4,
		Workers:    2,
		BatchSize:  64,
		BatchDelay: time.Hour,
	})
	type outcome struct {
		seed int64
		err  error
	}
	done := make(chan outcome, k)
	for i := 0; i < k; i++ {
		go func(seed int64) {
			req, want := faultReq(ring.Counting{}, seed)
			resp, err := srv.Multiply(context.Background(), req)
			if err == nil && !matrix.Equal(resp.X, want) {
				err = errors.New("wrong product")
			}
			done <- outcome{seed, err}
		}(int64(20 + 2*i))
	}
	for i := 0; srv.coal.Pending() < k && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := srv.coal.Pending(); got != k {
		t.Fatalf("parked %d lanes, want %d", got, k)
	}
	srv.Close()
	for i := 0; i < k; i++ {
		if out := <-done; out.err != nil {
			t.Fatalf("flushed lane (seed %d): %v", out.seed, out.err)
		}
	}
	m := srv.Metrics()
	if m[MetricBatchLaunch+"flush"] != 1 {
		t.Errorf("launch_flush=%d, want exactly 1", m[MetricBatchLaunch+"flush"])
	}
	if m[MetricBatchLaunch+"full"] != 0 || m[MetricBatchLaunch+"timeout"] != 0 {
		t.Errorf("non-flush launches during drain: %v", m)
	}
	if m[MetricServed] != k {
		t.Errorf("served=%d, want %d", m[MetricServed], k)
	}
	if m[MetricShed] != 0 {
		t.Errorf("shed=%d during drain, want 0", m[MetricShed])
	}
}

// TestServerCloseHammer races a stream of batching multiplies against
// Server.Close across several rounds, under the race detector. The contract:
// every call completes — with a correct product or ErrOverloaded (closed ==
// shedding to the caller) — and none hangs or panics in the closing window.
func TestServerCloseHammer(t *testing.T) {
	const goroutines, perG = 8, 6
	for round := 0; round < 4; round++ {
		srv := NewServer(Config{
			CacheSize:  4,
			BatchSize:  4,
			BatchDelay: time.Millisecond,
		})
		var wg sync.WaitGroup
		var served, shed int64
		var mu sync.Mutex
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				req, want := faultReq(ring.Counting{}, seed)
				<-start
				for j := 0; j < perG; j++ {
					resp, err := srv.Multiply(context.Background(), req)
					switch {
					case err == nil:
						if !matrix.Equal(resp.X, want) {
							t.Errorf("round %d: wrong product", round)
						}
						mu.Lock()
						served++
						mu.Unlock()
					case errors.Is(err, ErrOverloaded):
						mu.Lock()
						shed++
						mu.Unlock()
					default:
						t.Errorf("round %d: unexpected error %v", round, err)
					}
				}
			}(int64(40 + 2*g))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			srv.Close()
		}()
		close(start)
		wg.Wait()
		if served+shed != goroutines*perG {
			t.Fatalf("round %d: %d served + %d shed != %d calls", round, served, shed, goroutines*perG)
		}
	}
}

// TestPipelineDifferential extends the engines' oracle discipline to the
// pipeline: over random instances, two rings and the three launch policies,
// every way into the pipeline — Multiply, MultiplySubmit, a lane of
// multiplyBatch, POST /v1/multiply — returns the product core.Multiply
// computes. Afterwards every entry point is shed by the closed server and
// the books balance, shed lanes included.
func TestPipelineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type instance struct {
		name string
		inst *graph.Instance
	}
	var instances []instance
	for i := 0; i < 3; i++ {
		n, d, seed := 16+8*rng.Intn(3), 2+rng.Intn(3), rng.Int63()
		instances = append(instances,
			instance{fmt.Sprintf("mixed n=%d d=%d", n, d), workload.Mixed(n, d, seed)},
			instance{fmt.Sprintf("powerlaw n=%d d=%d", n, d), workload.PowerLaw(n, d, seed)})
	}
	for _, mode := range pipelineModes {
		srv := NewServer(mode.cfg)
		h := NewHandler(srv)
		// shuffle sends the same entries in random order: past the scanner
		// that is the Set/NewSupport fallback instead of the ordered path.
		overHTTP := func(req *MultiplyRequest, shuffle bool) (*matrix.Sparse, error) {
			wm := wireMultiplyRequest{
				N: req.Xhat.N, Ring: req.Options.Ring.Name(),
				A: sparseEntries(req.A), B: sparseEntries(req.B), Xhat: supportPositions(req.Xhat),
			}
			if shuffle {
				wm = shuffledWire(rng, wm)
			}
			rec := postJSON(t, h, "/v1/multiply", wm)
			if rec.Code == http.StatusServiceUnavailable {
				return nil, ErrOverloaded
			}
			var out wireMultiplyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
				return nil, fmt.Errorf("status %d: %s (%v)", rec.Code, rec.Body, err)
			}
			return buildSparse(req.Xhat.N, req.Options.Ring, out.X, "x")
		}
		var last *MultiplyRequest
		for _, in := range instances {
			for _, r := range []ring.Semiring{ring.Counting{}, ring.MinPlus{}} {
				a := matrix.Random(in.inst.Ahat, r, rng.Int63())
				b := matrix.Random(in.inst.Bhat, r, rng.Int63())
				opts := core.Options{Ring: r}
				want, _, err := core.Multiply(a, b, in.inst.Xhat, opts)
				if err != nil {
					t.Fatal(err)
				}
				last = &MultiplyRequest{A: a, B: b, Xhat: in.inst.Xhat, Options: opts}
				for _, ep := range entryPoints {
					got, err := ep.call(srv, last)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", mode.name, in.name, r.Name(), ep.name, err)
					}
					if !matrix.Equal(got, want) {
						t.Errorf("%s/%s/%s/%s: product differs from core.Multiply", mode.name, in.name, r.Name(), ep.name)
					}
				}
				for _, shuffle := range []bool{false, true} {
					if got, err := overHTTP(last, shuffle); err != nil {
						t.Fatalf("%s/%s/%s/http shuffled=%v: %v", mode.name, in.name, r.Name(), shuffle, err)
					} else if !matrix.Equal(got, want) {
						t.Errorf("%s/%s/%s/http shuffled=%v: product differs from core.Multiply", mode.name, in.name, r.Name(), shuffle)
					}
				}
			}
		}
		srv.Close()
		for _, ep := range entryPoints {
			if _, err := ep.call(srv, last); !errors.Is(err, ErrOverloaded) {
				t.Errorf("%s/%s after Close: err = %v, want ErrOverloaded", mode.name, ep.name, err)
			}
		}
		if _, err := overHTTP(last, false); !errors.Is(err, ErrOverloaded) {
			t.Errorf("%s/http after Close: err = %v, want ErrOverloaded", mode.name, err)
		}
		if m := srv.Metrics(); m[MetricShed] != 1+1+3+1 {
			t.Errorf("%s: shed=%d after Close, want 6 lanes (1+1+3 by entry point, 1 over HTTP)", mode.name, m[MetricShed])
		}
		checkBooks(t, srv)
	}
}

// TestServerCloseDrainsInFlightLane: Close waits for a lane that is already
// executing, whichever entry point submitted it and with batching off — it
// returns only after the lane's deliver ran.
func TestServerCloseDrainsInFlightLane(t *testing.T) {
	executing, unblock := make(chan struct{}), make(chan struct{})
	srv := NewServer(Config{FaultInjector: func(int) lbm.Injector {
		close(executing)
		<-unblock
		return nil
	}})
	req, want := faultReq(ring.Counting{}, 15)
	vr, err := listMultiply(req)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Bool
	_, err = srv.MultiplySubmit(context.Background(), vr, func(resp *MultiplyResponse, err error) {
		if err != nil || !matrix.Equal(resp.Product.Sparse(), want) {
			t.Errorf("drained lane: err=%v, or a wrong product", err)
		}
		delivered.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-executing
	closed := make(chan struct{})
	go func() {
		srv.Close()
		if !delivered.Load() {
			t.Error("Close returned before the in-flight lane was delivered")
		}
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a lane was still executing")
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	<-closed
}

// TestServerOneWorkerEveryEntryPoint: with a single worker slot no entry
// point may hold the slot while its own group waits for one. Every entry
// point under every launch policy must run to completion.
func TestServerOneWorkerEveryEntryPoint(t *testing.T) {
	for _, mode := range pipelineModes {
		cfg := mode.cfg
		cfg.Workers = 1
		srv := NewServer(cfg)
		for _, ep := range entryPoints {
			req, want := faultReq(ring.Counting{}, 17)
			done := make(chan error, 1)
			go func() {
				got, err := ep.call(srv, req)
				if err == nil && !matrix.Equal(got, want) {
					err = errors.New("wrong product")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s/%s: %v", mode.name, ep.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s/%s: stuck with one worker slot", mode.name, ep.name)
			}
		}
		checkBooks(t, srv)
	}
}

// TestServerLaunchOnlyItsOwnLanes pins whose lanes Launch starts: a group
// that also holds a lane submitted under another context keeps its batch
// window, and a group of only the caller's lanes launches at once with
// batch/launch_drain.
func TestServerLaunchOnlyItsOwnLanes(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4, BatchSize: 64, BatchDelay: time.Hour})
	mine, cancel := context.WithCancel(context.Background())
	defer cancel()
	theirs, cancelTheirs := context.WithCancel(context.Background())
	defer cancelTheirs()
	var wg sync.WaitGroup
	submit := func(ctx context.Context, seed int64) string {
		t.Helper()
		req, want := faultReq(ring.Counting{}, seed)
		vr, err := listMultiply(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		fp, err := srv.MultiplySubmit(ctx, vr, func(resp *MultiplyResponse, err error) {
			defer wg.Done()
			if err != nil || !matrix.Equal(resp.Product.Sparse(), want) {
				t.Errorf("lane %d: %v", seed, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	fp := submit(mine, 1)
	submit(theirs, 3)
	srv.Launch(mine, fp)
	if got := srv.coal.Pending(); got != 2 {
		t.Fatalf("Launch started a group holding another submitter's lane: %d lanes pending, want 2", got)
	}
	srv.Close() // flushes the mixed group
	wg.Wait()

	srv = NewServer(Config{CacheSize: 4, BatchSize: 64, BatchDelay: time.Hour})
	defer srv.Close()
	fp = submit(mine, 5)
	submit(mine, 7)
	srv.Launch(theirs, fp)
	if got := srv.coal.Pending(); got != 2 {
		t.Fatalf("Launch under another context started the group: %d lanes pending, want 2", got)
	}
	srv.Launch(mine, fp)
	wg.Wait()
	if m := srv.Metrics(); m[MetricBatchLaunch+"drain"] != 1 || m[MetricBatchSize+"/sum"] != 2 {
		t.Errorf("launch_drain=%d batch lanes=%d, want one drain launch of 2 lanes",
			m[MetricBatchLaunch+"drain"], m[MetricBatchSize+"/sum"])
	}
}
