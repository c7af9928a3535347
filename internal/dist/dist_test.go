package dist

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestLocalMeshRouting drives a 3-participant localhost mesh by hand for
// two rounds and checks that every payload lands at its owner's inbox and
// that the wire counters move.
func TestLocalMeshRouting(t *testing.T) {
	meshes, stop, err := NewLocalMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Round 0: rank 0 owns node 0's send targeting node 4 (rank 1), rank 1
	// owns node 1's send targeting node 3 (rank 0), rank 2 sends to itself
	// (node 5 → node 8, both rank 2: no wire).
	sends := map[int][]struct {
		dst  lbm.NodeID
		vals []ring.Value
	}{
		0: {{4, []ring.Value{1.5}}},
		1: {{3, []ring.Value{2.5}}},
		2: {{8, []ring.Value{3.5}}},
	}
	got := make([]map[lbm.NodeID][]ring.Value, 3)
	var wg sync.WaitGroup
	for rk := 0; rk < 3; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			for _, s := range sends[rk] {
				if err := meshes[rk].Send(0, s.dst, s.vals); err != nil {
					t.Errorf("rank %d send: %v", rk, err)
				}
			}
			in, err := meshes[rk].Deliver(0)
			if err != nil {
				t.Errorf("rank %d deliver: %v", rk, err)
			}
			got[rk] = in
		}(rk)
	}
	wg.Wait()

	want := []map[lbm.NodeID][]ring.Value{
		{3: {2.5}},
		{4: {1.5}},
		{8: {3.5}},
	}
	for rk := range want {
		if !reflect.DeepEqual(got[rk], want[rk]) {
			t.Errorf("rank %d round 0 inbox = %v, want %v", rk, got[rk], want[rk])
		}
	}

	// Round 1: nothing to say — every rank still acks the barrier.
	for rk := 0; rk < 3; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			in, err := meshes[rk].Deliver(1)
			if err != nil {
				t.Errorf("rank %d deliver round 1: %v", rk, err)
			}
			if len(in) != 0 {
				t.Errorf("rank %d round 1 inbox = %v, want empty", rk, in)
			}
		}(rk)
	}
	wg.Wait()

	for rk := 0; rk < 3; rk++ {
		c := meshes[rk].Counters()
		if c.Get(CounterBytesSent) <= 0 {
			t.Errorf("rank %d: net/bytes_sent = %d, want > 0", rk, c.Get(CounterBytesSent))
		}
		// Two rounds × two peers.
		if c.Get(CounterFlushes) != 4 {
			t.Errorf("rank %d: net/flushes = %d, want 4", rk, c.Get(CounterFlushes))
		}
		if c.Get(CounterRoundNS) <= 0 {
			t.Errorf("rank %d: net/round_ns = %d, want > 0", rk, c.Get(CounterRoundNS))
		}
	}
}

// prepCase builds one prepared workload for the distributed tests.
func prepCase(t *testing.T, alg string, r ring.Semiring, n, d int) (*core.Prepared, *matrix.Sparse, *matrix.Sparse, *matrix.Sparse) {
	t.Helper()
	inst := workload.Blocks(n, d)
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{
		Ring: r, D: d, Algorithm: alg,
	})
	if err != nil {
		t.Fatalf("prepare %s: %v", alg, err)
	}
	a := matrix.Random(inst.Ahat, r, 11)
	b := matrix.Random(inst.Bhat, r, 22)
	want, _, err := prep.Multiply(a, b)
	if err != nil {
		t.Fatalf("in-process multiply: %v", err)
	}
	return prep, a, b, want
}

// TestMeshMatrixMultiply runs the full compile matrix over a 3-participant
// TCP mesh inside one process: each rank executes the identical prepared
// plan with its mesh endpoint, the union of the partial outputs must equal
// the single-process product, and the merged per-rank statistics must equal
// the single-process Stats exactly.
func TestMeshMatrixMultiply(t *testing.T) {
	for _, alg := range []string{"lemma31", "theorem42"} {
		for _, r := range []ring.Semiring{ring.Real{}, ring.Counting{}} {
			t.Run(fmt.Sprintf("%s/%s", alg, r.Name()), func(t *testing.T) {
				prep, a, b, want := prepCase(t, alg, r, 32, 3)
				ref, refRep, err := prep.MultiplyOpts(a, b, core.ExecOpts{Transport: &lbm.Loopback{}})
				if err != nil {
					t.Fatalf("loopback multiply: %v", err)
				}
				if !matrix.Equal(ref, want) {
					t.Fatal("loopback product differs from the plain product")
				}

				meshes, stop, err := NewLocalMesh(3)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				outs := make([]*matrix.Sparse, 3)
				stats := make([]lbm.Stats, 3)
				errs := make([]error, 3)
				var wg sync.WaitGroup
				for rk := 0; rk < 3; rk++ {
					wg.Add(1)
					go func(rk int) {
						defer wg.Done()
						x, rep, err := prep.MultiplyOpts(a, b, core.ExecOpts{Transport: meshes[rk]})
						if err != nil {
							errs[rk] = err
							return
						}
						outs[rk] = x
						stats[rk] = rep.Stats
					}(rk)
				}
				wg.Wait()
				for rk, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", rk, err)
					}
				}
				merged := matrix.NewSparse(a.N, r)
				for _, x := range outs {
					for i, row := range x.Rows {
						for _, c := range row {
							merged.Set(i, int(c.Col), c.Val)
						}
					}
				}
				if !matrix.Equal(merged, want) {
					t.Error("merged distributed product differs from the single-process product")
				}
				if got := lbm.MergeStats(stats...); !reflect.DeepEqual(got, refRep.Stats) {
					t.Errorf("merged stats = %+v, want %+v", got, refRep.Stats)
				}
				for rk := 0; rk < 3; rk++ {
					if meshes[rk].Counters().Get(CounterBytesSent) <= 0 {
						t.Errorf("rank %d moved no wire bytes", rk)
					}
				}
			})
		}
	}
}

// TestWorkerCoordinator runs the whole process protocol in-process: three
// workers serving on loopback listeners, one coordinator shipping the plan
// and values, partial results merged and checked against the in-process
// product.
func TestWorkerCoordinator(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		go Serve(l, WorkerOptions{PeerTimeout: 10 * time.Second})
	}

	for _, alg := range []string{"lemma31", "theorem42"} {
		t.Run(alg, func(t *testing.T) {
			prep, a, b, want := prepCase(t, alg, ring.Real{}, 32, 3)
			res, err := Run(RunConfig{
				Workers: addrs,
				Prep:    prep,
				A:       a,
				B:       b,
				N:       a.N,
				Ring:    "real",
			})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(res.X, want) {
				t.Error("distributed product differs from the in-process product")
			}
			_, rep, err := prep.Multiply(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Stats, rep.Stats) {
				t.Errorf("merged stats = %+v, want %+v", res.Stats, rep.Stats)
			}
			if res.Counters[CounterBytesSent] <= 0 {
				t.Errorf("net/bytes_sent = %d, want > 0", res.Counters[CounterBytesSent])
			}
		})
	}
}

// TestFrameLimits pins the framing error paths: an oversized length prefix
// is rejected before any allocation, and a truncated body surfaces as an
// error rather than a hang or panic.
func TestFrameLimits(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		c1.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}()
	c2.SetReadDeadline(time.Now().Add(time.Second))
	var f roundFrame
	if err := readFrame(c2, &f); err == nil {
		t.Fatal("oversized frame length was accepted")
	}

	c3, c4 := net.Pipe()
	defer c4.Close()
	go func() {
		// Length says 100 bytes, then the connection dies after 3.
		c3.Write([]byte{0, 0, 0, 100, 1, 2, 3})
		c3.Close()
	}()
	c4.SetReadDeadline(time.Now().Add(time.Second))
	if err := readFrame(c4, &f); err == nil {
		t.Fatal("truncated frame was accepted")
	}
}
