package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"lbmm/internal/lbm"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// Counter names published by a Mesh into its obsv.CounterSet.
const (
	// CounterBytesSent is the wire bytes this endpoint wrote: payload values
	// plus the round-frame headers (a header-only frame is the barrier ack).
	// Compare with Stats.RoundBytes, the framing-free model volume.
	CounterBytesSent = "net/bytes_sent"
	// CounterRoundNS is the cumulative wall-clock time spent inside Deliver
	// barriers: the time inside exchanges.
	CounterRoundNS = "net/round_ns"
	// CounterFlushes counts per-peer frame writes: one per peer per exchange
	// (lbm/exchange.go), so flushes ÷ (Workers−1) is the number of barriers
	// this endpoint blocked on.
	CounterFlushes = "net/flushes"
)

// roundHeaderBytes is the fixed header of a round frame: three little-endian
// uint32s — the frame's total length in bytes (header included), the tag of
// the exchange it carries (the network round index of the exchange's first
// round), and the number of values that follow. The body is exactly that
// many little-endian float64s: the payloads, lanes values each, of the real
// messages — of every round of the exchange, in model order — from nodes the
// writer owns to nodes the reader owns, in instruction order within a round. No destination, no per-message length
// and no type stream travel: both ends walk the same plan with the same
// ownership table, so the reader knows which instruction each value belongs
// to and how many it is owed (docs/DIST.md).
const roundHeaderBytes = 12

// ErrRoundFrame is the typed rejection of a round frame whose header is
// inconsistent with itself or with the barrier it arrived in: a length over
// the frame cap, a length that disagrees with the value count, or the wrong
// round tag. A frame that is well-formed but carries a different number of
// values than the reader is owed fails with lbm.ErrRoundCount instead.
// Either way the mesh is dead and no store of the round has been written.
var ErrRoundFrame = errors.New("dist: malformed round frame")

// peerLink is one persistent connection to a fellow participant, reused for
// every exchange of the execution, with the frame buffers of both directions.
type peerLink struct {
	conn net.Conn
	r    *bufio.Reader
	// wbuf is the exchange's outgoing frame: header room, then the values
	// Send encodes in place. wn and werr are the outcome of writing it.
	wbuf []byte
	wn   int
	werr error
	// owed is the number of values Expect announced from this peer for the
	// exchange; rbuf holds the delivered values, consumed by Recv from rd. It
	// is sized from owed — never from the peer's length field — and reused.
	owed int
	hdr  [roundHeaderBytes]byte
	rbuf []byte
	rd   int
}

// Mesh is the socket-backed lbm.Transport: one endpoint of a fully
// connected mesh of participants walking one plan in lockstep. Send encodes
// each outgoing payload straight into its owner rank's frame buffer; Deliver
// — once per exchange — writes one frame per peer (a header-only frame is the
// barrier ack), and blocks until one round frame of exactly the expected size
// arrived from every peer; Recv decodes the values back out in the order they
// were sent. The mesh does not know how many model rounds an exchange
// carries: Send appends, Expect sums, Recv consumes from the front.
// Connections and buffers are reused across exchanges and across executions —
// the per-exchange cost is one write and one read per peer, no dials and, in
// steady state, no allocation beyond the writer goroutines.
type Mesh struct {
	part     Partition
	peers    []*peerLink  // indexed by rank, nil at our own
	local    lbm.Loopback // the slab of messages between two nodes we own
	wg       sync.WaitGroup
	counters *obsv.CounterSet
	// dead is the sticky lifecycle error: once a Deliver fails, the mesh's
	// stream positions are undefined (peers may hold unread or half-written
	// round frames), so every later Send/Expect/Deliver fails fast with the
	// original error instead of desyncing on a confusing round tag.
	dead error

	// ReadTimeout bounds one Deliver barrier, in both directions: the wait
	// for every peer's round frame and the write of ours (a peer that stops
	// reading fills the socket buffers and would park the writer forever).
	// 0 waits forever. It is the rescue path when a peer dies or stalls
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
			r:    bufio.NewReader(c),
			wbuf: make([]byte, roundHeaderBytes, 512),
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

// Send implements lbm.Transport: a message to a node we own joins the local
// slab (no wire); anything else is encoded onto the end of its owner rank's
// frame, which Deliver writes at the barrier.
func (m *Mesh) Send(round int, from, to lbm.NodeID, payload []ring.Value) error {
	if m.dead != nil {
		return fmt.Errorf("dist: rank %d: send on a dead mesh: %w", m.part.Rank, m.dead)
	}
	rk := m.part.RankOf(to)
	if rk == m.part.Rank {
		return m.local.Send(round, from, to, payload)
	}
	pl := m.peers[rk]
	if len(pl.wbuf)+8*len(payload) > maxFrameBytes {
		return fmt.Errorf("dist: rank %d: round %d frame for rank %d exceeds the %d-byte limit", m.part.Rank, round, rk, maxFrameBytes)
	}
	for _, v := range payload {
		pl.wbuf = binary.LittleEndian.AppendUint64(pl.wbuf, math.Float64bits(v))
	}
	return nil
}

// Expect implements lbm.Transport: the owner rank of from owes this endpoint
// lanes more values this exchange.
func (m *Mesh) Expect(round int, from, to lbm.NodeID, lanes int) error {
	if m.dead != nil {
		return fmt.Errorf("dist: rank %d: expect on a dead mesh: %w", m.part.Rank, m.dead)
	}
	rk := m.part.RankOf(from)
	if rk == m.part.Rank {
		return m.local.Expect(round, from, to, lanes)
	}
	m.peers[rk].owed += lanes
	return nil
}

// Recv implements lbm.Transport: the next len(dst) values of the delivered
// exchange from the rank owning from — off that peer's frame, or off the local
// slab when we own both ends.
func (m *Mesh) Recv(from, to lbm.NodeID, dst []ring.Value) error {
	rk := m.part.RankOf(from)
	if rk == m.part.Rank {
		return m.local.Recv(from, to, dst)
	}
	pl := m.peers[rk]
	if len(pl.rbuf)-pl.rd < 8*len(dst) {
		return fmt.Errorf("dist: rank %d: node %d wants %d values of node %d, rank %d's frame has %d bytes left: %w",
			m.part.Rank, to, len(dst), from, rk, len(pl.rbuf)-pl.rd, lbm.ErrRoundCount)
	}
	for l := range dst {
		dst[l] = math.Float64frombits(binary.LittleEndian.Uint64(pl.rbuf[pl.rd:]))
		pl.rd += 8
	}
	return nil
}

// Deliver implements lbm.Transport: it writes one round frame to every peer
// (concurrently, so frames larger than the socket buffers cannot write-write
// deadlock the mesh), reads one from every peer, and holds each to the
// exchange's tag and to exactly the values Expect announced.
//
// Error lifecycle: an early error does not abandon the remaining peers —
// their round frames are still read — and any Deliver error marks the mesh
// dead: the streams' positions are no longer trustworthy, so every later
// call fails fast with the original error instead of desyncing the next
// round with a confusing round-tag mismatch. Every frame is checked before
// Deliver returns, so a rejected round has written no store.
func (m *Mesh) Deliver(round int) error {
	if m.dead != nil {
		return fmt.Errorf("dist: rank %d: deliver on a dead mesh: %w", m.part.Rank, m.dead)
	}
	start := time.Now()
	err := m.exchange(round)
	m.counters.Add(CounterRoundNS, time.Since(start).Nanoseconds())
	if err != nil {
		m.dead = err
	}
	return err
}

func (m *Mesh) exchange(round int) error {
	if err := m.local.Deliver(round); err != nil {
		return fmt.Errorf("dist: rank %d: %w", m.part.Rank, err)
	}
	for rk, pl := range m.peers {
		if pl != nil && pl.rd != len(pl.rbuf) {
			return fmt.Errorf("dist: rank %d: round %d: %d bytes of rank %d's previous frame were never consumed: %w",
				m.part.Rank, round, len(pl.rbuf)-pl.rd, rk, lbm.ErrRoundCount)
		}
	}
	var deadline time.Time
	if m.ReadTimeout > 0 {
		deadline = time.Now().Add(m.ReadTimeout)
	}
	for _, pl := range m.peers {
		if pl == nil {
			continue
		}
		pl.conn.SetDeadline(deadline)
		binary.LittleEndian.PutUint32(pl.wbuf[0:], uint32(len(pl.wbuf)))
		binary.LittleEndian.PutUint32(pl.wbuf[4:], uint32(round))
		binary.LittleEndian.PutUint32(pl.wbuf[8:], uint32((len(pl.wbuf)-roundHeaderBytes)/8))
		m.wg.Add(1)
		go m.writeRound(pl)
	}
	var rerr error
	for rk, pl := range m.peers {
		// Keep reading after an error: the other peers each wrote exactly one
		// round frame, and reading it lets their writers finish.
		if pl == nil {
			continue
		}
		if err := pl.readRound(round); err != nil && rerr == nil {
			rerr = fmt.Errorf("dist: rank %d: reading round %d from rank %d: %w", m.part.Rank, round, rk, err)
		}
	}
	m.wg.Wait()
	var sent int64
	for rk, pl := range m.peers {
		if pl == nil {
			continue
		}
		if pl.werr != nil && rerr == nil {
			rerr = fmt.Errorf("dist: rank %d: writing round %d to rank %d: %w", m.part.Rank, round, rk, pl.werr)
		}
		sent += int64(pl.wn)
		pl.wbuf, pl.owed = pl.wbuf[:roundHeaderBytes], 0
	}
	m.counters.Add(CounterBytesSent, sent)
	m.counters.Add(CounterFlushes, int64(len(m.peers)-1))
	return rerr
}

// writeRound puts one peer's sealed frame on the wire in a single write.
func (m *Mesh) writeRound(pl *peerLink) {
	defer m.wg.Done()
	pl.wn, pl.werr = pl.conn.Write(pl.wbuf)
}

// readRound reads the peer's frame of the given round into rbuf, accepting
// it only if the header agrees with itself, with the round, and with the
// owed value count. The body buffer is sized from owed after the header has
// been checked against it, so a hostile length field allocates nothing.
func (pl *peerLink) readRound(round int) error {
	pl.rbuf, pl.rd = pl.rbuf[:0], 0
	if _, err := io.ReadFull(pl.r, pl.hdr[:]); err != nil {
		return err
	}
	length := binary.LittleEndian.Uint32(pl.hdr[0:])
	tag := binary.LittleEndian.Uint32(pl.hdr[4:])
	count := binary.LittleEndian.Uint32(pl.hdr[8:])
	switch {
	case length > maxFrameBytes:
		return fmt.Errorf("%w: length %d exceeds the %d-byte limit", ErrRoundFrame, length, maxFrameBytes)
	case uint64(length) != roundHeaderBytes+8*uint64(count):
		return fmt.Errorf("%w: length %d does not match %d values", ErrRoundFrame, length, count)
	case tag != uint32(round):
		return fmt.Errorf("%w: peer answered round %d", ErrRoundFrame, tag)
	case int(count) != pl.owed:
		return fmt.Errorf("peer sent %d values, owes %d: %w", count, pl.owed, lbm.ErrRoundCount)
	}
	n := 8 * pl.owed
	if cap(pl.rbuf) < n {
		pl.rbuf = make([]byte, n)
	}
	if _, err := io.ReadFull(pl.r, pl.rbuf[:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	pl.rbuf = pl.rbuf[:n]
	return nil
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

// NewLocalMesh builds a fully connected W-participant mesh over localhost
// TCP inside one process: real sockets, real frames, no worker processes.
// It is the backend of the benchmark's mesh_tcp workload (bench/README.md),
// the chaos differential's transport axis, and the package tests. The
// returned stop function closes every connection.
func NewLocalMesh(workers int) ([]*Mesh, func(), error) {
	conns, stop, err := localConns(workers)
	if err != nil {
		return nil, nil, err
	}
	meshes := make([]*Mesh, workers)
	for rk := range meshes {
		if meshes[rk], err = NewMesh(Partition{Workers: workers, Rank: rk}, conns[rk], nil); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return meshes, stop, nil
}

// localConns dials the connections of a local mesh: conns[i][j] is rank i's
// end of its link to rank j.
func localConns(workers int) ([][]net.Conn, func(), error) {
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
	return conns, stop, nil
}
