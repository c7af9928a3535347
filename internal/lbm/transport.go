package lbm

import (
	"errors"
	"fmt"

	"lbmm/internal/ring"
)

// This file is the communication seam of the execution spine. Both engines
// walk a plan's rounds; the point where a round's real messages leave their
// senders and reach their receivers — previously implicit in the in-memory
// gather/deliver — is factored behind Transport so the same instruction walk
// drives an in-process loopback or a mesh of TCP peers (internal/dist).
//
// The contract mirrors the model: rounds are synchronous barriers, and only
// values move. Every participant walks the identical plan with the identical
// node→participant ownership, so all of them observe the same round sequence
// and, per round and per peer, the same real messages in the same instruction
// order. Nothing but payload values therefore crosses the seam: a round with
// at least one real message walks its instructions once, calling Send for
// each real message whose sender this participant owns and Expect for each
// one it will receive from a node it does not own; then exactly one Deliver
// (the barrier), which verifies that every peer supplied exactly the values
// it owed; then one Recv per real message whose receiver is owned, again in
// instruction order, each taking the next values of the sender's owner. The
// receiver never reads a destination off the wire — it already knows it — so
// the model's one-send-one-receive rule is enforced as a count at the
// barrier (ErrRoundCount), before any store of the round is written. Rounds
// of only free local copies never touch the transport.
//
// Send copies its payload and Recv copies into the caller's slice, so the
// engines gather into and apply from their own reused round scratch and the
// steady state allocates nothing. Ownership is fixed for a run: the engines
// ask Owns once per node when the transport is attached and index the
// resulting table inside the round loops.
//
// A nil transport is the default and is not merely Loopback spelled
// differently: it selects the original single-process fast path, with no
// ownership checks and no transport calls. Loopback routes every real
// message through the full seam while owning every node, which the
// differential tests hold to byte-identical results, Stats and fault
// provenance against the nil-transport engines.

// ErrRoundCount is the typed violation of the seam's delivery contract: the
// values a round delivered are not the values the plan owes — a peer sent
// more or fewer than this participant expected from it, or the engine
// consumed more or fewer than were delivered. The engines never produce such
// a round (compile-time and checkRound validation fix the message set, and
// every participant derives the same set), so a miscount means a corrupted
// peer, a peer on a different plan, or a broken transport, and the execution
// must fail loudly before any store is written.
var ErrRoundCount = errors.New("lbm: round delivery does not match the plan's message count")

// valueWireBytes is the model-level size of one ring value on the wire
// (ring.Value is a float64). Stats.RoundBytes counts payload values at this
// size; the framing overhead of a real backend is measured separately by its
// net/* counters.
const valueWireBytes = 8

// Transport moves one round's real messages between nodes. Implementations
// are used by a single execution at a time (engines are not concurrent
// internally), but several executions may each hold their own Transport.
type Transport interface {
	// Owns reports whether this participant hosts node v's store. Non-owned
	// stores are inert: writes to them are dropped and their sends are some
	// other participant's job. The answer is fixed for the transport's life.
	Owns(v NodeID) bool
	// Send queues a copy of the payload (one value per lane) of one real
	// message of the given network round, from a node this participant owns
	// to any node (which may be local). Calls within a round come in
	// instruction order.
	Send(round int, from, to NodeID, payload []ring.Value) error
	// Expect announces one real message of the given network round that this
	// participant will receive, lanes values wide, from a node it does not
	// own. Deliver holds the sender's owner to the announced total.
	Expect(round int, from, to NodeID, lanes int) error
	// Deliver is the round barrier: it flushes queued sends, waits for every
	// peer, and verifies that each supplied exactly the values announced by
	// Expect — failing with an error wrapping ErrRoundCount otherwise. It is
	// called exactly once per network round by every participant, after all
	// of that participant's Sends and Expects for the round, and also checks
	// that the previous round's deliveries were consumed in full.
	Deliver(round int) error
	// Recv copies the payload of the round's next real message from from's
	// owner (this participant itself when it owns from) into dst, one value
	// per lane. The engine calls it once per real message whose receiver it
	// owns, in instruction order, after Deliver.
	Recv(from, to NodeID, dst []ring.Value) error
}

// Loopback is the in-process Transport: it owns every node and stashes each
// round's payloads in one reused slab, so Recv hands them back in order
// without any wire. It exists to exercise the full transport seam —
// ownership table, Send, barrier and in-order consumption — while staying
// bit-identical to the nil-transport engines, which the differential tests
// assert. The zero value is ready to use.
type Loopback struct {
	out, in []ring.Value // this round's sends; the delivered round being read
	rd      int          // read position in in
}

// Owns reports true: a loopback participant hosts every node.
func (lb *Loopback) Owns(NodeID) bool { return true }

// Send appends a copy of the payload to the round's slab.
func (lb *Loopback) Send(round int, from, to NodeID, payload []ring.Value) error {
	lb.out = append(lb.out, payload...)
	return nil
}

// Expect always fails: a loopback participant owns every sender, so no
// message can be owed to it by anyone else.
func (lb *Loopback) Expect(round int, from, to NodeID, lanes int) error {
	return fmt.Errorf("lbm: loopback round %d: expecting node %d's message from a peer, but loopback owns every node: %w", round, from, ErrRoundCount)
}

// Deliver turns the round's sends into its deliveries.
func (lb *Loopback) Deliver(round int) error {
	if lb.rd != len(lb.in) {
		return fmt.Errorf("lbm: loopback round %d: %d delivered values of the previous round were never consumed: %w", round, len(lb.in)-lb.rd, ErrRoundCount)
	}
	lb.in, lb.out, lb.rd = lb.out, lb.in[:0], 0
	return nil
}

// Recv copies out the next len(dst) delivered values.
func (lb *Loopback) Recv(from, to NodeID, dst []ring.Value) error {
	if len(lb.in)-lb.rd < len(dst) {
		return fmt.Errorf("lbm: loopback: node %d wants %d values from node %d, %d delivered values left: %w", to, len(dst), from, len(lb.in)-lb.rd, ErrRoundCount)
	}
	lb.rd += copy(dst, lb.in[lb.rd:])
	return nil
}

// MergeStats combines the per-participant statistics of one partitioned
// execution into the whole-run view a single-process engine would report.
// Per-owned-node charges (Messages, LocalCopies, SendLoad, RecvLoad) sum
// across the disjoint partitions; run-global measures every participant
// observed identically (Rounds, RoundBytes, PeakStore as the max over the
// per-node trajectories it hosts) merge by max.
func MergeStats(parts ...Stats) Stats {
	var out Stats
	for _, p := range parts {
		if p.Rounds > out.Rounds {
			out.Rounds = p.Rounds
		}
		if p.PeakStore > out.PeakStore {
			out.PeakStore = p.PeakStore
		}
		out.Messages += p.Messages
		out.LocalCopies += p.LocalCopies
		if len(p.SendLoad) > len(out.SendLoad) {
			out.SendLoad = append(out.SendLoad, make([]int64, len(p.SendLoad)-len(out.SendLoad))...)
			out.RecvLoad = append(out.RecvLoad, make([]int64, len(p.RecvLoad)-len(out.RecvLoad))...)
		}
		for i, v := range p.SendLoad {
			out.SendLoad[i] += v
		}
		for i, v := range p.RecvLoad {
			out.RecvLoad[i] += v
		}
		if len(p.RoundBytes) > len(out.RoundBytes) {
			out.RoundBytes = append(out.RoundBytes, make([]int64, len(p.RoundBytes)-len(out.RoundBytes))...)
		}
		for i, v := range p.RoundBytes {
			if v > out.RoundBytes[i] {
				out.RoundBytes[i] = v
			}
		}
	}
	return out
}

// WithTransport attaches a transport to a machine or executor. nil (the
// default) keeps the original in-memory fast path.
func WithTransport(t Transport) Option {
	return func(m *Machine) { m.transport = t }
}

// ownedTable asks the transport once per node which stores this participant
// hosts, appending into reuse's storage (empty for a nil transport). The
// round loops index the table instead of calling Owns per instruction.
func ownedTable(t Transport, n int, reuse []bool) []bool {
	owned := reuse[:0]
	for v := 0; t != nil && v < n; v++ {
		owned = append(owned, t.Owns(NodeID(v)))
	}
	return owned
}

// Owns reports whether this machine hosts node v's store (always true
// without a transport).
func (m *Machine) Owns(v NodeID) bool {
	return m.transport == nil || m.owned[v]
}

// Owns reports whether this executor hosts node v's store (always true
// without a transport).
func (x *Exec) Owns(v NodeID) bool {
	return x.transport == nil || x.owned[v]
}

// setTransport attaches (or, with nil, detaches) a transport and rebuilds
// the ownership table for it.
func (x *Exec) setTransport(t Transport) {
	x.transport = t
	x.owned = ownedTable(t, x.N, x.owned)
}

// runRoundVia executes one round through the machine's transport: validate,
// inject, gather owned payloads against the round-start state, exchange real
// messages at the barrier, apply deliveries in instruction order, then
// charge the owned share of the stats. With Loopback (owns-all) every step
// reduces to the nil-transport RunRound exactly.
func (m *Machine) runRoundVia(r Round) error {
	real, err := m.checkRound(r)
	if err != nil {
		return err
	}
	// Fault injection covers the full round on every participant — the walk
	// depends only on the plan, so all of them reach the same verdict and
	// abort before anything is sent, leaving no frame in flight.
	if m.injector != nil {
		if err := m.injectRound(r); err != nil {
			return err
		}
	}
	tr, owned := m.transport, m.owned
	if cap(m.viaVals) < len(r) {
		m.viaVals = make([]ring.Value, len(r))
	}
	vals := m.viaVals[:len(r)]
	for idx, s := range r {
		if !owned[s.From] {
			continue
		}
		v, ok := m.stores[s.From][s.Src]
		if !ok {
			return fmt.Errorf("lbm: node %d cannot send missing key %v", s.From, s.Src)
		}
		vals[idx] = v
	}
	if m.StoreLimit > 0 {
		if err := m.checkStoreLimit(r); err != nil {
			return err
		}
	}
	if real > 0 {
		rt := m.stats.Rounds // network round index: the pre-increment counter
		for idx, s := range r {
			switch {
			case s.From == s.To:
			case owned[s.From]:
				err = tr.Send(rt, s.From, s.To, vals[idx:idx+1])
			case owned[s.To]:
				err = tr.Expect(rt, s.From, s.To, 1)
			}
			if err != nil {
				return err
			}
		}
		// The barrier runs whenever the round carries real messages, even on
		// a participant that owns none of them: every peer must ack.
		if err := tr.Deliver(rt); err != nil {
			return err
		}
	}
	for idx, s := range r {
		if !owned[s.To] {
			continue
		}
		if s.From != s.To {
			if err := tr.Recv(s.From, s.To, vals[idx:idx+1]); err != nil {
				return err
			}
		}
		m.applyDelivery(s, vals[idx])
	}
	if real > 0 {
		m.stats.Rounds++
		m.stats.RoundBytes = append(m.stats.RoundBytes, real*valueWireBytes)
		c := m.collector
		var locals, ownedLocals, ownedReal int64
		for _, s := range r {
			if s.From != s.To {
				if owned[s.From] {
					ownedReal++
					m.stats.SendLoad[s.From]++
					if c != nil {
						c.OnSend(s.From, s.To)
					}
				}
				if owned[s.To] {
					m.stats.RecvLoad[s.To]++
				}
			} else {
				locals++
				if owned[s.From] {
					ownedLocals++
				}
			}
		}
		m.stats.Messages += ownedReal
		m.stats.LocalCopies += ownedLocals
		if c != nil {
			c.OnRound(int(real), int(locals))
		}
	} else if len(r) > 0 {
		var ownedLocals int64
		for _, s := range r {
			if owned[s.From] {
				ownedLocals++
			}
		}
		m.stats.LocalCopies += ownedLocals
	}
	return nil
}

// applyDelivery merges one payload value into the receiver's store with peak
// tracking, the single-send form of deliver.
func (m *Machine) applyDelivery(s Send, v ring.Value) {
	st := m.stores[s.To]
	m.applyOp(st, s.Dst, s.Op, v)
	if len(st) > m.stats.PeakStore {
		m.stats.PeakStore = len(st)
	}
}

// runRoundVia is the compiled engine's transport round: the same shape as
// Machine.runRoundVia over the SoA instruction range, carrying all lanes of
// each message in one payload. The round scratch has the fast path's layout
// (instruction i's lanes at (i-lo)*lanes): owned senders gather into it,
// Recv fills the positions of the messages that arrive from elsewhere, and
// applyInstr delivers from it exactly as the nil-transport path does.
func (x *Exec) runRoundVia(cp *CompiledPlan, t int) error {
	lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
	if hi == lo {
		return nil
	}
	if x.injector != nil {
		if err := x.injectRound(cp, lo, hi); err != nil {
			return err
		}
	}
	tr, owned := x.transport, x.owned
	K := x.lanes
	size := (hi - lo) * K
	if cap(x.payload) < size {
		x.payload = make([]ring.Value, size)
	}
	payload := x.payload[:size]
	for i := lo; i < hi; i++ {
		from, slot := cp.From[i], cp.SrcSlot[i]
		if !owned[from] {
			continue
		}
		if x.stamp[from][slot] != x.epoch {
			return x.missingErr(cp, i)
		}
		copy(payload[(i-lo)*K:(i-lo+1)*K], x.arena[from][int(slot)*K:])
	}
	if x.StoreLimit > 0 {
		if err := x.checkStoreLimit(cp, lo, hi); err != nil {
			return err
		}
	}
	real := int64(cp.Real[t])
	if real > 0 {
		rt := x.stats.Rounds
		for i := lo; i < hi; i++ {
			from, to := cp.From[i], cp.To[i]
			var err error
			switch {
			case from == to:
			case owned[from]:
				err = tr.Send(rt, from, to, payload[(i-lo)*K:(i-lo+1)*K])
			case owned[to]:
				err = tr.Expect(rt, from, to, K)
			}
			if err != nil {
				return err
			}
		}
		if err := tr.Deliver(rt); err != nil {
			return err
		}
	}
	for i := lo; i < hi; i++ {
		from, to := cp.From[i], cp.To[i]
		if !owned[to] {
			continue
		}
		if from != to {
			if err := tr.Recv(from, to, payload[(i-lo)*K:(i-lo+1)*K]); err != nil {
				return err
			}
		}
		x.applyInstr(cp, i, lo, payload)
		x.markPresent(to, cp.DstSlot[i])
	}
	if real > 0 {
		x.stats.Rounds++
		x.stats.RoundBytes = append(x.stats.RoundBytes, real*valueWireBytes)
		c := x.collector
		var locals, ownedLocals, ownedReal int64
		for i := lo; i < hi; i++ {
			from, to := cp.From[i], cp.To[i]
			if from != to {
				if owned[from] {
					ownedReal++
					x.stats.SendLoad[from]++
					if c != nil {
						c.OnSend(from, to)
					}
				}
				if owned[to] {
					x.stats.RecvLoad[to]++
				}
			} else {
				locals++
				if owned[from] {
					ownedLocals++
				}
			}
		}
		x.stats.Messages += ownedReal
		x.stats.LocalCopies += ownedLocals
		if c != nil {
			c.OnRound(int(real), int(locals))
		}
	} else {
		var ownedLocals int64
		for i := lo; i < hi; i++ {
			if owned[cp.From[i]] {
				ownedLocals++
			}
		}
		x.stats.LocalCopies += ownedLocals
	}
	return nil
}
