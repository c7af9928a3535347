package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

// roundFrameBytes encodes one round frame the way a well-behaved peer does.
func roundFrameBytes(round uint32, vals ...float64) []byte {
	b := make([]byte, roundHeaderBytes, roundHeaderBytes+8*len(vals))
	binary.LittleEndian.PutUint32(b[0:], uint32(roundHeaderBytes+8*len(vals)))
	binary.LittleEndian.PutUint32(b[4:], round)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// scriptConn is a peer that says exactly the scripted bytes and then hangs
// up, and records what it is told.
type scriptConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// hostileRound is rank 0 of a 2-rank mesh walking a two-round, 2-lane plan
// against a scripted rank 1. The first round has everything a rank can see:
// two messages in (1→0, 3→2), two out (0→1, 2→3) and a free local copy. The
// second (0→1, 1→0 again) reads nothing the first wrote, so it rides the
// first's exchange: one frame each way, tagged 0, carrying both rounds. It
// returns the mesh, the scripted peer, every slot's (value bits, present)
// before and after the run, and the run's error.
func hostileRound(t testing.TB, script []byte) (mesh *Mesh, peer *scriptConn, before, after []uint64, err error) {
	const lanes = 2
	sp := lbm.NewSlotSpace(4, 0)
	rounds := []lbm.Round{{
		{From: 0, To: 1, Src: lbm.AKey(0, 0), Dst: lbm.TKey(0, 1, 0), Op: lbm.OpSet},
		{From: 1, To: 0, Src: lbm.AKey(1, 1), Dst: lbm.TKey(1, 0, 0), Op: lbm.OpSet},
		{From: 2, To: 3, Src: lbm.AKey(2, 2), Dst: lbm.TKey(2, 3, 0), Op: lbm.OpSet},
		{From: 3, To: 2, Src: lbm.AKey(3, 3), Dst: lbm.AKey(2, 2), Op: lbm.OpSet},
		{From: 0, To: 0, Src: lbm.AKey(0, 0), Dst: lbm.TKey(0, 0, 1), Op: lbm.OpSet},
	}, {
		{From: 0, To: 1, Src: lbm.AKey(0, 0), Dst: lbm.TKey(0, 1, 1), Op: lbm.OpSet},
		{From: 1, To: 0, Src: lbm.AKey(1, 1), Dst: lbm.TKey(1, 0, 1), Op: lbm.OpSet},
	}}
	for v := int32(0); v < 4; v++ {
		sp.Slot(v, lbm.AKey(v, v))
	}
	cp, err := lbm.CompileInto(sp, &lbm.Plan{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if s := (&lbm.Chain{Plans: []*lbm.CompiledPlan{cp}}).Schedule(); s.Rounds() != 2 || s.Exchanges() != 1 {
		t.Fatalf("the hostile plan has %d rounds in %d exchanges, want 2 in 1", s.Rounds(), s.Exchanges())
	}
	peer = &scriptConn{in: bytes.NewReader(script)}
	mesh, err = NewMesh(Partition{Workers: 2, Rank: 0}, []net.Conn{nil, peer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := lbm.NewExecBatch(sp.Sizes(), lanes, ring.Real{}, lbm.WithTransport(mesh))
	for v := int32(0); v < 4; v++ {
		for lane := 0; lane < lanes; lane++ {
			x.PutLane(sp.Ref(v, lbm.AKey(v, v)), lane, float64(10*(lane+1)+int(v)))
		}
	}
	snapshot := func() []uint64 {
		var s []uint64
		sp.EachKey(func(node lbm.NodeID, _ lbm.Key, slot int32) {
			for lane := 0; lane < lanes; lane++ {
				v, ok := x.GetLane(lbm.SlotRef{Node: node, Slot: slot}, lane)
				s = append(s, math.Float64bits(v))
				if ok {
					s = append(s, 1)
				} else {
					s = append(s, 0)
				}
			}
		})
		return s
	}
	before = snapshot()
	err = x.Run(cp)
	return mesh, peer, before, snapshot(), err
}

// hostileOwed is what rank 1 owes rank 0 for hostileRound's exchange: two
// messages of two lanes for its first round and one for its second.
const hostileOwed = 6

// checkRejected asserts the fail-closed contract for a script that is not
// the frame rank 0 is owed: a typed error, a dead mesh, no store of either
// round written, and a body buffer no larger than the owed values.
func checkRejected(t testing.TB, script []byte) error {
	t.Helper()
	mesh, _, before, after, err := hostileRound(t, script)
	switch {
	case err == nil:
		t.Fatalf("script %x was accepted", script)
	case errors.Is(err, ErrRoundFrame), errors.Is(err, lbm.ErrRoundCount),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
	default:
		t.Fatalf("script %x: untyped error %v", script, err)
	}
	if mesh.Err() == nil {
		t.Errorf("script %x: rejected frame left the mesh alive", script)
	}
	if !slices.Equal(before, after) {
		t.Errorf("script %x: a rejected round wrote to the stores:\n before %v\n after  %v", script, before, after)
	}
	if c := cap(mesh.peers[1].rbuf); c > 8*hostileOwed {
		t.Errorf("script %x: body buffer grew to %d bytes, owed %d", script, c, 8*hostileOwed)
	}
	return err
}

// TestRoundFrameHostile feeds the round-frame reader every way a frame can
// disagree with the plan or with itself. Each must fail closed (see
// checkRejected) with the right error class; the well-formed frame must
// deliver, and what rank 0 writes in turn is pinned byte for byte.
func TestRoundFrameHostile(t *testing.T) {
	good := roundFrameBytes(0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
	withHeader := func(length, tag, count uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[0:], length)
		binary.LittleEndian.PutUint32(b[4:], tag)
		binary.LittleEndian.PutUint32(b[8:], count)
		return b
	}
	for _, tc := range []struct {
		name   string
		script []byte
		want   error
	}{
		{"silence", nil, io.EOF},
		{"short header", good[:5], io.ErrUnexpectedEOF},
		{"truncated body", good[:len(good)-12], io.ErrUnexpectedEOF},
		{"trailing bytes claimed", append(withHeader(68, 0, 6), make([]byte, 8)...), ErrRoundFrame},
		{"length below count", withHeader(52, 0, 6), ErrRoundFrame},
		{"length over the cap", withHeader(12+8*0x0fffffff, 0, 0x0fffffff), ErrRoundFrame},
		// The tag is the exchange's first round; round 1, which the exchange
		// also carries, has no tag of its own.
		{"wrong round tag", withHeader(60, 1, 6), ErrRoundFrame},
		{"one value short", roundFrameBytes(0, 1.5, 2.5, 3.5, 4.5, 5.5), lbm.ErrRoundCount},
		{"one message extra", roundFrameBytes(0, 1, 2, 3, 4, 5, 6, 7, 8), lbm.ErrRoundCount},
		// A peer on a schedule that did not fuse sends the first round alone.
		{"first round of the exchange only", roundFrameBytes(0, 1.5, 2.5, 3.5, 4.5), lbm.ErrRoundCount},
		{"barrier ack only", roundFrameBytes(0), lbm.ErrRoundCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkRejected(t, tc.script); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("well-formed", func(t *testing.T) {
		mesh, peer, _, after, err := hostileRound(t, good)
		if err != nil || mesh.Err() != nil {
			t.Fatalf("well-formed frame rejected: %v (mesh: %v)", err, mesh.Err())
		}
		// One frame for the exchange, count = the sum of both rounds: round
		// 0 in instruction order (node 0's payload, then node 2's), then
		// round 1 (node 0's).
		if want := roundFrameBytes(0, 10, 20, 12, 22, 10, 20); !bytes.Equal(peer.out.Bytes(), want) {
			t.Errorf("rank 0 wrote %x, want %x", peer.out.Bytes(), want)
		}
		// Slots in EachKey order: node 0 holds A(0,0), T(1,0,0) ← node 1's
		// first message, T(0,0,1) ← the local copy, T(1,0,1) ← node 1's
		// second message; node 2 holds A(2,2) ← node 3's message. Nodes 1
		// (three slots) and 3 (two) are rank 1's.
		p, a := uint64(1), uint64(0)
		bits := math.Float64bits
		want := []uint64{
			bits(10), p, bits(20), p, bits(1.5), p, bits(2.5), p, bits(10), p, bits(20), p, bits(5.5), p, bits(6.5), p,
			0, a, 0, a, 0, a, 0, a, 0, a, 0, a,
			bits(3.5), p, bits(4.5), p,
			0, a, 0, a, 0, a, 0, a,
		}
		if !slices.Equal(after, want) {
			t.Errorf("stores after the round:\n got  %v\n want %v", after, want)
		}
	})
}

// FuzzRoundFrame throws arbitrary bytes at the round-frame reader through
// the full Deliver → Recv → store path. The only script that may be accepted
// starts with exactly the frame rank 0 is owed; everything else must fail
// closed.
func FuzzRoundFrame(f *testing.F) {
	good := roundFrameBytes(0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), 0xff))
	f.Add(good[:5])
	f.Add(good[:20])
	f.Add(roundFrameBytes(0))
	f.Add(roundFrameBytes(1, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5))
	f.Add(roundFrameBytes(0, 1.5, 2.5, 3.5, 4.5))
	f.Add(roundFrameBytes(0, 1, 2, 3, 4, 5, 6, 7))
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < len(good) || !bytes.Equal(script[:roundHeaderBytes], good[:roundHeaderBytes]) {
			checkRejected(t, script)
			return
		}
		mesh, _, _, after, err := hostileRound(t, script)
		if err != nil || mesh.Err() != nil {
			t.Fatalf("the owed frame was rejected: %v", err)
		}
		// T(1,0,0) at node 0, A(2,2) at node 2 and T(1,0,1) at node 0 hold
		// the frame's values, in that order.
		for i, at := range []int{4, 6, 28, 30, 12, 14} {
			if want := binary.LittleEndian.Uint64(script[roundHeaderBytes+8*i:]); after[at] != want || after[at+1] != 1 {
				t.Fatalf("value %d: slot holds %x (present %d), frame says %x", i, after[at], after[at+1], want)
			}
		}
	})
}

// meshRounds drives synthetic exchanges on every rank of a local mesh at
// once, each carrying fused model rounds behind one barrier, the way the
// executor's walk does: the sends of every round of the exchange, one Deliver
// tagged with the exchange's first round, then the receives round by round.
// In each round every rank sends msgs messages of lanes values to each other
// rank (node v lives on rank v mod p) and checks what it gets back.
func meshRounds(t *testing.T, meshes []*Mesh, first, exchanges, fused, msgs, lanes int) {
	t.Helper()
	p := len(meshes)
	var wg sync.WaitGroup
	for rk := range meshes {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			m := meshes[rk]
			buf := make([]ring.Value, lanes)
			for tag := first; tag < first+exchanges*fused; tag += fused {
				// Message i of the pair (src rank, dst rank) goes from node
				// src+p*i to node dst+p*i.
				for round := tag; round < tag+fused; round++ {
					for i := 0; i < msgs; i++ {
						for peer := 0; peer < p; peer++ {
							if peer == rk {
								continue
							}
							from, to := lbm.NodeID(rk+p*i), lbm.NodeID(peer+p*i)
							for l := range buf {
								buf[l] = float64(round*1000 + int(from)*10 + l)
							}
							if err := m.Send(tag, from, to, buf); err != nil {
								t.Errorf("rank %d: %v", rk, err)
								return
							}
							if err := m.Expect(tag, to, from, lanes); err != nil {
								t.Errorf("rank %d: %v", rk, err)
								return
							}
						}
					}
				}
				if err := m.Deliver(tag); err != nil {
					t.Errorf("rank %d exchange %d: %v", rk, tag, err)
					return
				}
				for round := tag; round < tag+fused; round++ {
					for i := 0; i < msgs; i++ {
						for peer := 0; peer < p; peer++ {
							if peer == rk {
								continue
							}
							from, to := lbm.NodeID(peer+p*i), lbm.NodeID(rk+p*i)
							if err := m.Recv(from, to, buf); err != nil {
								t.Errorf("rank %d: %v", rk, err)
								return
							}
							for l, v := range buf {
								if want := float64(round*1000 + int(from)*10 + l); v != want {
									t.Errorf("rank %d round %d: node %d lane %d = %v, want %v", rk, round, from, l, v, want)
									return
								}
							}
						}
					}
				}
			}
		}(rk)
	}
	wg.Wait()
}

// TestMeshRoundAllocs pins the property the speedup rests on: an exchange on
// a kept-open mesh allocates nothing — no codec state, no per-exchange
// buffers, no maps, and, since a frame the socket takes whole is written
// inline, no writer goroutine — however many model rounds it carries.
func TestMeshRoundAllocs(t *testing.T) {
	meshes, stop, err := NewLocalMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	const fused = 3
	meshRounds(t, meshes, 0, 8, fused, 4, 2) // warm: grow every buffer once
	const exchanges = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	meshRounds(t, meshes, 8*fused, exchanges, fused, 4, 2)
	runtime.ReadMemStats(&after)
	// The bound leaves room for meshRounds' own three goroutines; one
	// writer goroutine per peer write would be two per exchange and rank.
	perExchange := float64(after.Mallocs-before.Mallocs) / (exchanges * 3)
	if perExchange > 0.25 {
		t.Errorf("%.2f allocations per exchange per rank, want at most 0.25", perExchange)
	}
	t.Logf("%.2f allocations, %.0f bytes per exchange of %d rounds per rank", perExchange,
		float64(after.TotalAlloc-before.TotalAlloc)/(exchanges*3), fused)
	for rk, m := range meshes {
		if got := m.Counters().Get(CounterFlushes); got != (8+exchanges)*2 {
			t.Errorf("rank %d: net/flushes = %d, want %d: one per peer per exchange", rk, got, (8+exchanges)*2)
		}
	}
}

// shrinkBuffers pins every connection's kernel buffers at 32 KiB a side
// (setting them also switches off the kernel's autotuning, which would
// otherwise grow them to several MiB), so a 1 MiB frame overflows them.
func shrinkBuffers(t *testing.T, conns [][]net.Conn) {
	t.Helper()
	for _, row := range conns {
		for _, c := range row {
			if tc, ok := c.(*net.TCPConn); ok {
				if err := tc.SetReadBuffer(32 << 10); err != nil {
					t.Fatal(err)
				}
				if err := tc.SetWriteBuffer(32 << 10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMeshLargeFrames is the deadlock-freedom argument for writing what the
// inline write leaves of every peer's frame concurrently with the reads:
// when each frame is far larger than the socket buffers, all ranks are
// mid-write at once, and a rank that wrote its peers one after another
// before reading would wait on a peer that is waiting on it. 64 lanes × 2048
// messages is 1 MiB per frame against socket buffers pinned at 32 KiB a
// side, so every frame spills to the writer goroutine.
func TestMeshLargeFrames(t *testing.T) {
	conns, stop, err := localConns(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	shrinkBuffers(t, conns)
	meshes := make([]*Mesh, 3)
	for rk := range meshes {
		if meshes[rk], err = NewMesh(Partition{Workers: 3, Rank: rk}, conns[rk], nil); err != nil {
			t.Fatal(err)
		}
		meshes[rk].ReadTimeout = 10 * time.Second
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		meshRounds(t, meshes, 0, 3, 1, 2048, 64)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		stop()
		<-done
		t.Fatal("large frames deadlocked the mesh")
	}
	for rk, m := range meshes {
		if want := int64(3 * 2 * (roundHeaderBytes + 8*2048*64)); m.Counters().Get(CounterBytesSent) != want {
			t.Errorf("rank %d: net/bytes_sent = %d, want %d", rk, m.Counters().Get(CounterBytesSent), want)
		}
	}
}

// TestMeshStalledPeer pins the bounded write: a peer that stops reading
// fills the socket buffers, and without a write deadline the frame's writer
// would park forever and hang Deliver behind it even after every read timed
// out. With ReadTimeout armed on both directions Deliver returns a typed
// timeout — after between ReadTimeout and 2×ReadTimeout, the deadline being
// armed 2×ReadTimeout ahead — the mesh is dead, and no goroutine is left
// behind.
func TestMeshStalledPeer(t *testing.T) {
	conns, stop, err := localConns(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	shrinkBuffers(t, conns)
	baseline := runtime.NumGoroutine()
	// Rank 1 is a raw connection nobody ever reads or writes.
	mesh, err := NewMesh(Partition{Workers: 2, Rank: 0}, conns[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh.ReadTimeout = 300 * time.Millisecond
	payload := make([]ring.Value, 64)
	for i := 0; i < 8192; i++ { // a 4 MiB frame
		if err := mesh.Send(0, 0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	err = mesh.Deliver(0)
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Deliver against a stalled peer = %v, want a timeout", err)
	}
	if elapsed < mesh.ReadTimeout || elapsed > 5*time.Second {
		t.Fatalf("Deliver took %v against a 300ms timeout", elapsed)
	}
	if mesh.Err() == nil {
		t.Error("a timed-out barrier left the mesh alive")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the stalled round", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMeshSlowPeerWithinTimeout pins the lazily re-armed deadline's promise:
// every barrier gets at least ReadTimeout, however little of the last arming
// the barriers before it left. Rank 1 answers each of several barriers after
// 0.6×ReadTimeout, so a deadline armed once, or re-armed only when it has
// passed, would expire inside the second or third barrier of rank 0.
func TestMeshSlowPeerWithinTimeout(t *testing.T) {
	meshes, stop, err := NewLocalMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	const timeout, barriers = 250 * time.Millisecond, 6
	for _, m := range meshes {
		m.ReadTimeout = timeout
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rk, m := range meshes {
		wg.Add(1)
		go func(rk int, m *Mesh) {
			defer wg.Done()
			for tag := 0; tag < barriers; tag++ {
				if rk == 1 {
					time.Sleep(timeout * 6 / 10)
				}
				if err := m.Deliver(tag); err != nil {
					errs[rk] = fmt.Errorf("barrier %d: %w", tag, err)
					return
				}
			}
		}(rk, m)
	}
	wg.Wait()
	for rk, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rk, err)
		}
	}
}

// deadlineConn records the deadlines a mesh sets on it.
type deadlineConn struct {
	scriptConn
	set []time.Time
}

func (c *deadlineConn) SetDeadline(d time.Time) error { c.set = append(c.set, d); return nil }

// TestMeshDeadlineRearm pins when the barrier deadline moves: on the first
// exchange, then only once less than ReadTimeout of it is left — and then
// 2×ReadTimeout ahead — or when ReadTimeout changes; a ReadTimeout of 0
// clears it once.
func TestMeshDeadlineRearm(t *testing.T) {
	peer := &deadlineConn{}
	mesh, err := NewMesh(Partition{Workers: 2, Rank: 0}, []net.Conn{nil, peer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const T = time.Second
	mesh.ReadTimeout = T
	t0 := time.Now()
	var want []time.Time
	for _, step := range []struct {
		at     time.Duration // when the exchange starts, after t0
		rearms bool
	}{
		{0, true},      // first exchange: deadline t0+2T
		{T / 2, false}, // 1.5T left
		{T, false},     // exactly T left
		{T + 1, true},  // under T left: deadline t0+3T+1
		{2 * T, false}, // T+1 left
		{5 * T, true},  // long idle, deadline passed: re-armed
	} {
		now := t0.Add(step.at)
		mesh.armDeadline(now)
		if step.rearms {
			want = append(want, now.Add(2*T))
		}
		if !slices.EqualFunc(peer.set, want, time.Time.Equal) {
			t.Fatalf("after an exchange at t0+%v: deadlines %v, want %v", step.at, peer.set, want)
		}
	}
	now := t0.Add(5 * T)
	mesh.ReadTimeout = 3 * T // a new timeout re-arms at once
	mesh.armDeadline(now)
	want = append(want, now.Add(6*T))
	mesh.ReadTimeout = 0 // cleared once, then left alone
	mesh.armDeadline(now)
	mesh.armDeadline(now.Add(T))
	want = append(want, time.Time{})
	if !slices.EqualFunc(peer.set, want, time.Time.Equal) {
		t.Fatalf("deadlines %v, want %v", peer.set, want)
	}
}
