package dist

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// TestPlanCacheLRU pins the cache mechanics: hits refresh recency, the
// oldest entry past the bound is evicted, and a zero bound disables the
// cache entirely.
func TestPlanCacheLRU(t *testing.T) {
	prep, _, _, _ := prepCase(t, "lemma31", ring.Real{}, 16, 2)
	c := newPlanCache(2)
	c.put("a", prep)
	c.put("b", prep)
	if _, ok := c.get("a"); !ok {
		t.Fatal("entry a missing")
	}
	// a is now most recent; adding c must evict b.
	c.put("c", prep)
	if _, ok := c.get("b"); ok {
		t.Fatal("entry b survived past the bound")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	off := newPlanCache(0)
	off.put("a", prep)
	if _, ok := off.get("a"); ok || off.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestWorkerPlanResolution pins the worker-side cache protocol: a cached
// fingerprint skips the envelope (hit), a missing envelope on a cold cache
// is a typed failure, and an envelope whose self-address disagrees with the
// requested fingerprint is rejected.
func TestWorkerPlanResolution(t *testing.T) {
	prep, _, _, _ := prepCase(t, "lemma31", ring.Real{}, 16, 2)
	fp, err := prep.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := prep.Encode(&env); err != nil {
		t.Fatal(err)
	}

	w := newWorker(WorkerOptions{})
	counters := obsv.NewCounterSet()
	if _, err := w.plan(&jobFrame{Fingerprint: fp}, counters); err == nil {
		t.Fatal("cold cache with no envelope was accepted")
	}
	if counters.Get(CounterPlanMisses) != 1 {
		t.Fatalf("plan misses = %d, want 1", counters.Get(CounterPlanMisses))
	}

	if _, err := w.plan(&jobFrame{Fingerprint: fp, Prepared: env.Bytes()}, counters); err != nil {
		t.Fatalf("decode with envelope: %v", err)
	}
	if _, err := w.plan(&jobFrame{Fingerprint: fp}, counters); err != nil {
		t.Fatalf("warm cache without envelope: %v", err)
	}
	if counters.Get(CounterPlanHits) != 1 {
		t.Fatalf("plan hits = %d, want 1", counters.Get(CounterPlanHits))
	}

	bad := strings.Repeat("0", len(fp))
	if _, err := w.plan(&jobFrame{Fingerprint: bad, Prepared: env.Bytes()}, counters); err == nil {
		t.Fatal("envelope accepted under a mismatched fingerprint")
	}
}

// TestParkReleasedOnFailedJob is the leak regression test: a peer connection
// parked for a job that then fails must be closed and forgotten when the job
// errors, not held for the worker's lifetime.
func TestParkReleasedOnFailedJob(t *testing.T) {
	w := newWorker(WorkerOptions{PeerTimeout: time.Second})
	p1, p2 := net.Pipe()
	defer p2.Close()
	w.park("j1", 1, p1)
	if w.parkedConns() != 1 {
		t.Fatalf("parked = %d, want 1", w.parkedConns())
	}

	cc, cw := net.Pipe()
	defer cw.Close()
	done := make(chan error, 1)
	go func() { done <- w.runJob(cc) }()
	// Rank out of range: the job fails validation before any mesh forms.
	jf := jobFrame{Job: "j1", Rank: 9, Workers: 2, Peers: []string{"a", "b"}, Ring: "real",
		Lanes: mustLanes(t, [][]wireVal{nil}, [][]wireVal{nil})}
	if err := writeFrame(cw, &jf); err != nil {
		t.Fatal(err)
	}
	var rf resultFrame
	cw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readFrame(cw, &rf, maxFrameBytes); err != nil {
		t.Fatal(err)
	}
	if rf.Err == "" {
		t.Fatal("malformed job produced no error reply")
	}
	if err := <-done; err != nil {
		t.Fatalf("runJob: %v", err)
	}
	if w.parkedConns() != 0 {
		t.Fatalf("parked = %d after a failed job, want 0 (leak)", w.parkedConns())
	}
}

// TestParkTTLReap is the other half of the leak fix: a parked connection
// whose job never arrives at this worker is reaped by the TTL sweep.
func TestParkTTLReap(t *testing.T) {
	w := newWorker(WorkerOptions{ParkTTL: 30 * time.Millisecond})
	p1, p2 := net.Pipe()
	defer p2.Close()
	w.park("ghost", 1, p1)
	deadline := time.Now().Add(5 * time.Second)
	for w.parkedConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d long past the TTL, want 0", w.parkedConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A claim after the reap times out instead of handing back a closed conn.
	if _, err := w.claim("ghost", 1, 50*time.Millisecond); err == nil {
		t.Fatal("claim returned a reaped connection")
	}
}

// TestParkReplaceClosesOld pins the duplicate-dial path: parking a second
// connection under the same (job, rank) closes the first instead of
// leaking it.
func TestParkReplaceClosesOld(t *testing.T) {
	w := newWorker(WorkerOptions{})
	p1, p2 := net.Pipe()
	defer p2.Close()
	q1, q2 := net.Pipe()
	defer q2.Close()
	w.park("j", 1, p1)
	w.park("j", 1, q1)
	if w.parkedConns() != 1 {
		t.Fatalf("parked = %d, want 1", w.parkedConns())
	}
	p1.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := p1.Read(make([]byte, 1)); err == nil {
		t.Fatal("replaced connection still open")
	}
}

// TestClaimTimeoutWakes pins that a claim with no matching park returns at
// its deadline instead of blocking on the condition variable forever (run
// under -race in CI).
func TestClaimTimeoutWakes(t *testing.T) {
	w := newWorker(WorkerOptions{})
	start := time.Now()
	_, err := w.claim("nojob", 1, 100*time.Millisecond)
	if err == nil {
		t.Fatal("claim with no parked connection succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("claim took %v to time out, want ~100ms", elapsed)
	}
}

// TestDialRetryDeadline pins that dialRetry gives up at its deadline when
// nothing ever listens.
func TestDialRetryDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the port now refuses
	start := time.Now()
	if _, err := dialRetry(addr, 300*time.Millisecond); err == nil {
		t.Fatal("dialRetry to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dialRetry took %v past a 300ms deadline", elapsed)
	}
}

// TestExecuteRejectsMalformedJobs pins the job-frame validation: bad ranks,
// peer-count mismatches, lane mismatches and bad partition tables must all
// fail before any mesh forms.
func TestExecuteRejectsMalformedJobs(t *testing.T) {
	lane := func(t *testing.T) []byte { return mustLanes(t, [][]wireVal{nil}, [][]wireVal{nil}) }
	for _, tc := range []struct {
		name string
		jf   func(t *testing.T) jobFrame
	}{
		{"rank out of range", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 2, Workers: 2, Peers: []string{"a", "b"}, Lanes: lane(t)}
		}},
		{"negative rank", func(t *testing.T) jobFrame {
			return jobFrame{Rank: -1, Workers: 2, Peers: []string{"a", "b"}, Lanes: lane(t)}
		}},
		{"peer count mismatch", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 3, Peers: []string{"a", "b"}, Lanes: lane(t)}
		}},
		{"no lanes", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 2, Peers: []string{"a", "b"}}
		}},
		{"empty lane payload", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 2, Peers: []string{"a", "b"}, Lanes: mustLanes(t, nil, nil)}
		}},
		{"lane mismatch", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 2, Peers: []string{"a", "b"}, Lanes: mustLanes(t, [][]wireVal{nil, nil}, [][]wireVal{nil})}
		}},
		{"short table", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 2, Peers: []string{"a", "b"}, N: 8, Table: []uint16{0, 1}, Lanes: lane(t)}
		}},
		{"table names a ghost rank", func(t *testing.T) jobFrame {
			return jobFrame{Rank: 0, Workers: 2, Peers: []string{"a", "b"}, N: 2, Table: []uint16{0, 7}, Lanes: lane(t)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorker(WorkerOptions{})
			jf := tc.jf(t)
			if _, _, err := w.execute(&jf, obsv.NewCounterSet()); err == nil {
				t.Fatal("malformed job frame was accepted")
			}
		})
	}
}

// TestMeshRoundCount pins the one-send-one-receive rule where the bytes
// arrive: a peer cannot name a destination any more, so the only way to
// break the rule on the wire is to send a different number of values than
// the receiver's walk of the plan says it is owed. Both directions — a peer
// that sends values nobody expects and a peer whose frame comes up short —
// fail the owner's Deliver with lbm.ErrRoundCount and kill its mesh, while
// the well-behaved peers' barriers complete.
func TestMeshRoundCount(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sent, expect bool // rank 1 sends 1→0; rank 0 expects it
	}{
		{"unexpected", true, false},
		{"short", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meshes, stop, err := NewLocalMesh(3)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for rk := 1; rk <= 2; rk++ {
				wg.Add(1)
				go func(rk int) {
					defer wg.Done()
					if rk == 1 && tc.sent {
						if errs[rk] = meshes[rk].Send(0, 1, 0, []ring.Value{7}); errs[rk] != nil {
							return
						}
					}
					errs[rk] = meshes[rk].Deliver(0)
				}(rk)
			}
			if tc.expect {
				if err := meshes[0].Expect(0, 1, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			err = meshes[0].Deliver(0)
			wg.Wait()
			if !errors.Is(err, lbm.ErrRoundCount) {
				t.Fatalf("owner's Deliver = %v, want ErrRoundCount", err)
			}
			for rk := 1; rk <= 2; rk++ {
				if errs[rk] != nil {
					t.Errorf("rank %d: %v", rk, errs[rk])
				}
			}
			if meshes[0].Err() == nil {
				t.Error("a miscounted frame did not mark the mesh dead")
			}
		})
	}
}

// TestMeshDeadAfterError pins the sticky lifecycle: a Deliver error leaves
// the stream positions undefined, so every later Send and Deliver on that
// endpoint must fail fast with the original error instead of desyncing the
// next round (the regression was a poisoned mesh answering later rounds
// with confusing round-tag mismatches).
func TestMeshDeadAfterError(t *testing.T) {
	meshes, stop, err := NewLocalMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	var err1 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Rank 1 answers with round tag 5 while rank 0 expects round 0.
		err1 = meshes[1].Deliver(5)
	}()
	err0 := meshes[0].Deliver(0)
	wg.Wait()
	if err0 == nil || err1 == nil {
		t.Fatalf("desynced rounds delivered cleanly: rank0=%v rank1=%v", err0, err1)
	}
	if !errors.Is(err0, ErrRoundFrame) {
		t.Fatalf("wrong round tag = %v, want ErrRoundFrame", err0)
	}
	if meshes[0].Err() == nil {
		t.Fatal("Deliver error did not mark the mesh dead")
	}
	if err := meshes[0].Send(1, 0, 1, []ring.Value{1}); err == nil {
		t.Fatal("Send on a dead mesh succeeded")
	}
	if err := meshes[0].Expect(1, 1, 0, 1); err == nil {
		t.Fatal("Expect on a dead mesh succeeded")
	}
	if err := meshes[0].Deliver(1); err == nil {
		t.Fatal("Deliver on a dead mesh succeeded")
	}
}

// TestCoordinatorPlanCacheAndBatch drives the full process protocol twice
// against one warm worker set: the second run must be served from the plan
// cache (dist/plan_hits ≥ 1), and — batched, under the balanced partition —
// its merged lanes must equal the per-lane in-process products.
func TestCoordinatorPlanCacheAndBatch(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		go Serve(l, WorkerOptions{PeerTimeout: 10 * time.Second})
	}
	prep, a, b, want := prepCase(t, "lemma31", ring.Real{}, 32, 3)

	res, err := Run(RunConfig{Workers: addrs, Prep: prep, A: a, B: b, N: a.N, Ring: "real"})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(res.Xs[0], want) {
		t.Error("first run's product differs from the in-process product")
	}
	if res.Counters[CounterPlanMisses] != int64(len(addrs)) {
		t.Errorf("first run plan misses = %d, want %d", res.Counters[CounterPlanMisses], len(addrs))
	}

	// Second job, batched and balanced, same plan: every worker holds the
	// fingerprint now.
	as := []*matrix.Sparse{a, matrix.Random(a.Support(), ring.Real{}, 77)}
	bs := []*matrix.Sparse{b, matrix.Random(b.Support(), ring.Real{}, 88)}
	res2, err := Run(RunConfig{
		Workers: addrs, Prep: prep, As: as, Bs: bs, N: a.N, Ring: "real",
		Partition: PartitionBalanced,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters[CounterPlanHits] < 1 {
		t.Errorf("warm run plan hits = %d, want ≥ 1", res2.Counters[CounterPlanHits])
	}
	if res2.Table == nil {
		t.Error("balanced run reported no partition table")
	}
	if len(res2.Xs) != 2 {
		t.Fatalf("got %d lanes, want 2", len(res2.Xs))
	}
	for l := range as {
		wantL, _, err := prep.Multiply(as[l], bs[l])
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(res2.Xs[l], wantL) {
			t.Errorf("lane %d differs from its in-process product", l)
		}
	}
	if len(res2.PerRankCounters) != len(addrs) {
		t.Fatalf("per-rank counters cover %d ranks, want %d", len(res2.PerRankCounters), len(addrs))
	}
}

// TestRunValidation pins the coordinator's input contract: both value
// forms at once, missing lanes, and unknown partitions are rejected before
// any worker is dialed.
func TestRunValidation(t *testing.T) {
	prep, a, b, _ := prepCase(t, "lemma31", ring.Real{}, 16, 2)
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	cases := []RunConfig{
		{Workers: addrs, Prep: prep, A: a, B: b, As: []*matrix.Sparse{a}, Bs: []*matrix.Sparse{b}, N: a.N, Ring: "real"},
		{Workers: addrs, Prep: prep, N: a.N, Ring: "real"},
		{Workers: addrs, Prep: prep, As: []*matrix.Sparse{a}, Bs: []*matrix.Sparse{b, b}, N: a.N, Ring: "real"},
		{Workers: addrs, Prep: prep, A: a, B: b, N: a.N, Ring: "real", Partition: "zigzag"},
		{Workers: addrs, Prep: prep, A: a, B: b, N: a.N, Ring: "real", Table: []uint16{9}},
		{Workers: addrs[:1], Prep: prep, A: a, B: b, N: a.N, Ring: "real"},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config was accepted", i)
		}
	}
}
