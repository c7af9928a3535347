package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"lbmm/internal/lbm"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// Counter names published by a Mesh into its obsv.CounterSet.
const (
	// CounterBytesSent is the wire bytes this endpoint wrote: payloads plus
	// all framing (length prefixes, gob type streams, barrier acks). Compare
	// with Stats.RoundBytes, the framing-free model volume.
	CounterBytesSent = "net/bytes_sent"
	// CounterRoundNS is the cumulative wall-clock time spent inside Deliver
	// barriers.
	CounterRoundNS = "net/round_ns"
	// CounterFlushes counts per-peer write-buffer flushes (one per peer per
	// network round).
	CounterFlushes = "net/flushes"
)

// peerLink is one persistent connection to a fellow participant, reused for
// every round of the execution.
type peerLink struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
}

// Mesh is the socket-backed lbm.Transport: one endpoint of a fully
// connected mesh of participants walking one plan in lockstep. Send buffers
// the round's outgoing messages per destination rank; Deliver frames each
// peer's batch (an empty batch is the barrier ack), flushes once per peer,
// and blocks until one round frame arrives from every peer. Connections are
// reused across rounds and across executions — the per-round cost is one
// buffered write and one read per peer, no dials.
type Mesh struct {
	part     Partition
	peers    []*peerLink // indexed by rank, nil at our own
	out      [][]wireMsg // queued sends per destination rank
	inbox    map[lbm.NodeID][]ring.Value
	counters *obsv.CounterSet
	// dead is the sticky lifecycle error: once a Deliver fails, the mesh's
	// stream positions are undefined (peers may hold unread or half-written
	// round frames), so every later Send/Deliver fails fast with the
	// original error instead of desyncing on a confusing round tag.
	dead error

	// ReadTimeout bounds the wait for each peer's round frame inside
	// Deliver; 0 waits forever. It is the rescue path when a peer dies
	// mid-run outside the fault model (see the runbook in docs/DIST.md).
	ReadTimeout time.Duration
}

// NewMesh wraps established peer connections (indexed by rank; the entry at
// part.Rank is ignored) into a transport endpoint. Counters may be nil.
func NewMesh(part Partition, conns []net.Conn, counters *obsv.CounterSet) (*Mesh, error) {
	if part.Workers < 1 || part.Rank < 0 || part.Rank >= part.Workers {
		return nil, fmt.Errorf("dist: invalid partition rank %d of %d", part.Rank, part.Workers)
	}
	if err := ValidateTable(part.Table, part.Workers); err != nil {
		return nil, err
	}
	if len(conns) != part.Workers {
		return nil, fmt.Errorf("dist: rank %d: got %d peer connections, want %d", part.Rank, len(conns), part.Workers)
	}
	if counters == nil {
		counters = obsv.NewCounterSet()
	}
	m := &Mesh{
		part:        part,
		peers:       make([]*peerLink, part.Workers),
		out:         make([][]wireMsg, part.Workers),
		counters:    counters,
		ReadTimeout: 60 * time.Second,
	}
	for rk, c := range conns {
		if rk == part.Rank {
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("dist: rank %d: no connection to peer rank %d", part.Rank, rk)
		}
		m.peers[rk] = &peerLink{
			conn: c,
			w:    bufio.NewWriter(&countingWriter{w: c, counters: counters}),
			r:    bufio.NewReader(c),
		}
	}
	return m, nil
}

// Part returns the mesh's partition.
func (m *Mesh) Part() Partition { return m.part }

// Counters returns the mesh's transport counters.
func (m *Mesh) Counters() *obsv.CounterSet { return m.counters }

// Owns implements lbm.Transport.
func (m *Mesh) Owns(v lbm.NodeID) bool { return m.part.Owns(v) }

// Send implements lbm.Transport: self-owned destinations go straight to the
// inbox (no wire), everything else queues for its owner's rank until the
// Deliver barrier. A second payload for an already-stashed self-owned
// destination violates the one-receive-per-round contract and returns an
// error wrapping lbm.ErrDuplicateDelivery (remote duplicates are caught at
// the receiving rank's Deliver).
func (m *Mesh) Send(round int, dst lbm.NodeID, payload []ring.Value) error {
	if m.dead != nil {
		return fmt.Errorf("dist: rank %d: send on a dead mesh: %w", m.part.Rank, m.dead)
	}
	if m.part.Owns(dst) {
		if m.inbox == nil {
			m.inbox = make(map[lbm.NodeID][]ring.Value)
		}
		if _, dup := m.inbox[dst]; dup {
			return fmt.Errorf("dist: rank %d: round %d, node %d: %w", m.part.Rank, round, dst, lbm.ErrDuplicateDelivery)
		}
		m.inbox[dst] = payload
		return nil
	}
	rk := m.part.RankOf(dst)
	m.out[rk] = append(m.out[rk], wireMsg{Dst: int32(dst), Vals: payload})
	return nil
}

// Deliver implements lbm.Transport: it writes one round frame to every peer
// (concurrently, so large frames cannot write-write deadlock the mesh),
// reads one from every peer, verifies the round tags, and hands back the
// payloads addressed to locally-owned nodes.
//
// Error lifecycle: an early error no longer abandons the remaining peers —
// their round frames are still read (drained), so no frame lingers in a
// stream buffer. Any Deliver error additionally marks the mesh dead: the
// streams' positions are no longer trustworthy, so every later Send or
// Deliver fails fast with the original error instead of desyncing the next
// round with a confusing round-tag mismatch.
func (m *Mesh) Deliver(round int) (map[lbm.NodeID][]ring.Value, error) {
	if m.dead != nil {
		return nil, fmt.Errorf("dist: rank %d: deliver on a dead mesh: %w", m.part.Rank, m.dead)
	}
	start := time.Now()
	var wg sync.WaitGroup
	werrs := make([]error, len(m.peers))
	for rk, pl := range m.peers {
		if pl == nil {
			continue
		}
		wg.Add(1)
		go func(rk int, pl *peerLink) {
			defer wg.Done()
			f := roundFrame{Round: int32(round), Msgs: m.out[rk]}
			if err := writeFrame(pl.w, &f); err != nil {
				werrs[rk] = err
				return
			}
			werrs[rk] = pl.w.Flush()
			m.counters.Add(CounterFlushes, 1)
		}(rk, pl)
	}

	in := m.inbox
	m.inbox = nil
	var rerr error
	for rk, pl := range m.peers {
		// Keep reading after an error: every peer wrote exactly one round
		// frame, and leaving it buffered would poison a reuse of the mesh.
		if pl == nil {
			continue
		}
		if m.ReadTimeout > 0 {
			pl.conn.SetReadDeadline(time.Now().Add(m.ReadTimeout))
		}
		var f roundFrame
		if err := readFrame(pl.r, &f); err != nil {
			if rerr == nil {
				rerr = fmt.Errorf("dist: rank %d: reading round %d from rank %d: %w", m.part.Rank, round, rk, err)
			}
			continue
		}
		if int(f.Round) != round {
			if rerr == nil {
				rerr = fmt.Errorf("dist: rank %d: peer rank %d answered round %d during round %d", m.part.Rank, rk, f.Round, round)
			}
			continue
		}
		for _, msg := range f.Msgs {
			if in == nil {
				in = make(map[lbm.NodeID][]ring.Value)
			}
			if _, dup := in[lbm.NodeID(msg.Dst)]; dup {
				if rerr == nil {
					rerr = fmt.Errorf("dist: rank %d: round %d, node %d (from rank %d): %w",
						m.part.Rank, round, msg.Dst, rk, lbm.ErrDuplicateDelivery)
				}
				continue
			}
			in[lbm.NodeID(msg.Dst)] = msg.Vals
		}
	}
	wg.Wait()
	for rk, err := range werrs {
		if err != nil && rerr == nil {
			rerr = fmt.Errorf("dist: rank %d: writing round %d to rank %d: %w", m.part.Rank, round, rk, err)
		}
	}
	for rk := range m.out {
		m.out[rk] = m.out[rk][:0]
	}
	m.counters.Add(CounterRoundNS, time.Since(start).Nanoseconds())
	if rerr != nil {
		m.dead = rerr
		return nil, rerr
	}
	return in, nil
}

// Err returns the sticky lifecycle error, nil while the mesh is usable.
func (m *Mesh) Err() error { return m.dead }

// Close closes every peer connection.
func (m *Mesh) Close() error {
	var first error
	for _, pl := range m.peers {
		if pl == nil {
			continue
		}
		if err := pl.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// countingWriter charges every write under the bufio layer — i.e. actual
// wire bytes, framing included — to the bytes-sent counter.
type countingWriter struct {
	w        net.Conn
	counters *obsv.CounterSet
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.counters.Add(CounterBytesSent, int64(n))
	return n, err
}

// NewLocalMesh builds a fully connected W-participant mesh over localhost
// TCP inside one process: real sockets, real frames, no worker processes.
// It is the backend of the benchmark's mesh_tcp workload (bench/README.md),
// the chaos differential's transport axis, and the package tests. The returned stop function closes every
// connection.
func NewLocalMesh(workers int) ([]*Mesh, func(), error) {
	return NewLocalMeshTable(workers, nil)
}

// NewLocalMeshTable is NewLocalMesh with an explicit node→rank assignment
// table shared by every endpoint (nil for the modulo map), for comparing
// partitions over real sockets in one process.
func NewLocalMeshTable(workers int, table []uint16) ([]*Mesh, func(), error) {
	if workers < 2 {
		return nil, nil, fmt.Errorf("dist: a local mesh needs at least 2 participants, got %d", workers)
	}
	conns := make([][]net.Conn, workers)
	for i := range conns {
		conns[i] = make([]net.Conn, workers)
	}
	stop := func() {
		for _, row := range conns {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
	}
	for i := 0; i < workers; i++ {
		for j := i + 1; j < workers; j++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				stop()
				return nil, nil, err
			}
			type accepted struct {
				c   net.Conn
				err error
			}
			ch := make(chan accepted, 1)
			go func() {
				c, err := l.Accept()
				ch <- accepted{c, err}
			}()
			cj, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				l.Close()
				stop()
				return nil, nil, err
			}
			acc := <-ch
			l.Close()
			if acc.err != nil {
				cj.Close()
				stop()
				return nil, nil, acc.err
			}
			conns[i][j] = acc.c
			conns[j][i] = cj
		}
	}
	meshes := make([]*Mesh, workers)
	for rk := 0; rk < workers; rk++ {
		m, err := NewMesh(Partition{Workers: workers, Rank: rk, Table: table}, conns[rk], nil)
		if err != nil {
			stop()
			return nil, nil, err
		}
		meshes[rk] = m
	}
	return meshes, stop, nil
}
