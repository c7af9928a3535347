package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// localMeshTable is NewLocalMesh with an explicit node→rank table shared by
// every endpoint, closed with the test.
func localMeshTable(t *testing.T, workers int, table []uint16) []*Mesh {
	t.Helper()
	conns, stop, err := localConns(workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	meshes := make([]*Mesh, workers)
	for rk := range meshes {
		if meshes[rk], err = NewMesh(Partition{Workers: workers, Rank: rk, Table: table}, conns[rk], nil); err != nil {
			t.Fatal(err)
		}
	}
	return meshes
}

// TestLocalMeshRouting drives a 3-participant localhost mesh by hand for
// two exchanges — the first carrying two model rounds behind one barrier, the
// second none — and checks that every payload reaches its owner in order,
// that a frame costs exactly its header plus eight bytes per value, that a
// barrier is one flush per peer however many rounds it carries, and that the
// other wire counters move.
func TestLocalMeshRouting(t *testing.T) {
	meshes, stop, err := NewLocalMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// The exchange tagged 0, the same message set seen from every rank.
	// Round 0: node 0 (rank 0) → node 4 (rank 1), node 1 (rank 1) → node 3
	// (rank 0), node 5 → node 8 (both rank 2: no wire). Round 1, riding the
	// same exchange: node 0 → node 4 again, node 2 (rank 2) → node 3.
	type msg struct {
		from, to lbm.NodeID
		val      ring.Value
	}
	rounds := [][]msg{
		{{0, 4, 1.5}, {1, 3, 2.5}, {5, 8, 3.5}},
		{{0, 4, 4.5}, {2, 3, 5.5}},
	}
	var wg sync.WaitGroup
	for rk := 0; rk < 3; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			m := meshes[rk]
			for _, msgs := range rounds {
				for _, s := range msgs {
					var err error
					switch {
					case m.Owns(s.from):
						err = m.Send(0, s.from, s.to, []ring.Value{s.val})
					case m.Owns(s.to):
						err = m.Expect(0, s.from, s.to, 1)
					}
					if err != nil {
						t.Errorf("rank %d queueing %d→%d: %v", rk, s.from, s.to, err)
					}
				}
			}
			if err := m.Deliver(0); err != nil {
				t.Errorf("rank %d deliver: %v", rk, err)
				return
			}
			for _, msgs := range rounds {
				for _, s := range msgs {
					if !m.Owns(s.to) {
						continue
					}
					var got [1]ring.Value
					if err := m.Recv(s.from, s.to, got[:]); err != nil || got[0] != s.val {
						t.Errorf("rank %d: node %d received (%v, %v), want %v", rk, s.to, got[0], err, s.val)
					}
				}
			}
			// The next exchange is tagged with its own first round, 2, and
			// has nothing to say — every rank still acks the barrier.
			if err := m.Deliver(2); err != nil {
				t.Errorf("rank %d deliver exchange 2: %v", rk, err)
			}
		}(rk)
	}
	wg.Wait()

	// Two exchanges × two peers of 12-byte headers, plus 8 bytes a value:
	// two from rank 0 (both to rank 1), one each from ranks 1 and 2.
	wantBytes := []int64{64, 56, 56}
	for rk := 0; rk < 3; rk++ {
		c := meshes[rk].Counters()
		if got := c.Get(CounterBytesSent); got != wantBytes[rk] {
			t.Errorf("rank %d: net/bytes_sent = %d, want %d", rk, got, wantBytes[rk])
		}
		if c.Get(CounterFlushes) != 4 {
			t.Errorf("rank %d: net/flushes = %d, want 4", rk, c.Get(CounterFlushes))
		}
		if c.Get(CounterRoundNS) <= 0 {
			t.Errorf("rank %d: net/round_ns = %d, want > 0", rk, c.Get(CounterRoundNS))
		}
	}
}

// prepCase builds one prepared workload for the distributed tests.
func prepCase(t testing.TB, alg string, r ring.Semiring, n, d int) (*core.Prepared, *matrix.Sparse, *matrix.Sparse, *matrix.Sparse) {
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
// the nil-transport Stats exactly — model rounds do not know about
// exchanges. Every rank blocks on exactly the exchanges the plan's schedule
// has, never more than it has network rounds. Every case runs under the
// modulo map and under the load-balanced table, where what a peer owes
// follows from plan order and the table alone, not from v mod p.
func TestMeshMatrixMultiply(t *testing.T) {
	for _, alg := range []string{"lemma31", "theorem42"} {
		for _, r := range []ring.Semiring{ring.Real{}, ring.Counting{}} {
			t.Run(fmt.Sprintf("%s/%s", alg, r.Name()), func(t *testing.T) {
				prep, a, b, want := prepCase(t, alg, r, 32, 3)
				_, plain, err := prep.MultiplyOpts(a, b, core.ExecOpts{})
				if err != nil {
					t.Fatalf("nil-transport multiply: %v", err)
				}
				ref, refRep, err := prep.MultiplyOpts(a, b, core.ExecOpts{Transport: &lbm.Loopback{}})
				if err != nil {
					t.Fatalf("loopback multiply: %v", err)
				}
				if !matrix.Equal(ref, want) {
					t.Fatal("loopback product differs from the plain product")
				}
				if !reflect.DeepEqual(refRep.Stats, plain.Stats) {
					t.Fatalf("loopback stats = %+v, nil transport %+v", refRep.Stats, plain.Stats)
				}
				sched := prep.Exchanges()
				if sched.Rounds != plain.Stats.Rounds || sched.Exchanges > sched.Rounds {
					t.Fatalf("schedule: %d exchanges over %d rounds, the run has %d rounds", sched.Exchanges, sched.Rounds, plain.Stats.Rounds)
				}
				balanced := BalancedTable(plain.Stats.SendLoad, plain.Stats.RecvLoad, 3)
				for _, table := range [][]uint16{nil, balanced} {
					meshes := localMeshTable(t, 3, table)
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
							t.Fatalf("table %v rank %d: %v", table != nil, rk, err)
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
						t.Errorf("table %v: merged distributed product differs from the single-process product", table != nil)
					}
					if got := lbm.MergeStats(stats...); !reflect.DeepEqual(got, plain.Stats) {
						t.Errorf("table %v: merged stats = %+v, want %+v", table != nil, got, plain.Stats)
					}
					for rk := 0; rk < 3; rk++ {
						c := meshes[rk].Counters()
						if c.Get(CounterBytesSent) <= 0 {
							t.Errorf("table %v: rank %d moved no wire bytes", table != nil, rk)
						}
						if got := c.Get(CounterFlushes); got != int64(2*sched.Exchanges) {
							t.Errorf("table %v: rank %d: net/flushes = %d, want one per peer for each of %d exchanges (%d rounds)",
								table != nil, rk, got, sched.Exchanges, sched.Rounds)
						}
					}
				}
				t.Logf("%d network rounds in %d exchanges", sched.Rounds, sched.Exchanges)
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
			if !matrix.Equal(res.Xs[0], want) {
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

// TestFrameLimits pins the gob framing error paths of the once-per-job
// frames: a length prefix over the caller's limit is rejected before any
// body byte is read, and a truncated body surfaces as an error rather than a
// hang or panic. (The round frames' limits are TestRoundFrameHostile's.)
func TestFrameLimits(t *testing.T) {
	var f resultFrame
	if err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), &f, maxFrameBytes); err == nil {
		t.Fatal("oversized frame length was accepted")
	}
	// A hello may claim far less than a job frame may.
	if err := readFrame(bytes.NewReader([]byte{0, 0, 0x10, 0x01}), &helloFrame{}, maxHelloBytes); err == nil {
		t.Fatal("hello frame over the hello limit was accepted")
	}
	// Length says 100 bytes, then the stream ends after 3.
	err := readFrame(bytes.NewReader([]byte{0, 0, 0, 100, 1, 2, 3}), &f, maxFrameBytes)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame = %v, want io.ErrUnexpectedEOF", err)
	}
}
