package lbm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"lbmm/internal/ring"
)

// This file is the communication seam of the execution spine. Both engines
// walk a plan's rounds; the point where real messages leave their senders and
// reach their receivers — previously implicit in the in-memory gather/deliver
// — is factored behind Transport so the same instruction walk drives an
// in-process loopback or a mesh of TCP peers (internal/dist).
//
// The contract mirrors the model where it must and departs from it where the
// machine differs. Only values move: every participant walks the identical
// plan with the identical node→participant ownership, so all of them observe
// the same round sequence and, per peer, the same real messages in the same
// instruction order. But the unit a transport blocks on is an exchange, not a
// round. An exchange is one or more consecutive network rounds, none of whose
// real messages reads what an earlier round of the same exchange writes —
// which rounds those are is a function of the plans alone (exchange.go), so
// every participant cuts the round sequence at the same places without
// knowing the ownership table. The map engine (Machine.runRoundVia) puts
// every network round in an exchange of its own: it is the unfused oracle
// the compiled engine's walk is tested against.
//
// At the first round of an exchange the engine walks the instructions of
// every round the exchange carries, in model order, calling Send for each
// real message whose sender this participant owns and Expect for each one it
// will receive from a node it does not own; then exactly one Deliver (the
// barrier), which verifies that every peer supplied exactly the values it
// owed — for all those rounds together. Then, round by round as the walk
// reaches them, one Recv per real message whose receiver is owned, again in
// instruction order, each taking the next values of the sender's owner. Recv
// order is therefore the Send order — rounds in model order, instructions in
// plan order within each — and a backend that appends on Send and consumes
// from the front on Recv needs to know nothing about exchanges. The receiver
// never reads a destination off the wire — it already knows it — so the
// model's one-send-one-receive rule is enforced as a count at the barrier
// (ErrRoundCount), before any store of the exchange is written. Two
// participants that disagreed on the schedule would fail that count, not
// compute a wrong product. Rounds of only free local copies never touch the
// transport.
//
// Every call of an exchange carries the same tag: the network round index
// (the Stats.Rounds counter) of the exchange's first round. Tags increase
// from one exchange to the next but are not consecutive.
//
// Send copies its payload and Recv copies into the caller's slice, so the
// engines send from their arenas, apply from their own reused round scratch
// and the steady state allocates nothing. Ownership is fixed for the
// transport's life: the transport hands the engines its ownership table
// (Owned) when it is attached, and the round loops index that table.
//
// A nil transport is the default and is not merely Loopback spelled
// differently: it selects the original single-process fast path, with no
// ownership checks, no exchange schedule and no transport calls. Loopback
// routes every real message through the full seam while owning every node,
// which the differential tests hold to byte-identical results, Stats and
// fault provenance against the nil-transport engines.

// ErrRoundCount is the typed violation of the seam's delivery contract: the
// values an exchange delivered are not the values the plan owes — a peer sent
// more or fewer than this participant expected from it, or the engine
// consumed more or fewer than were delivered. The engines never produce such
// an exchange (compile-time and checkRound validation fix the message set,
// and every participant derives the same set and the same schedule), so a
// miscount means a corrupted peer, a peer on a different plan, or a broken
// transport, and the execution must fail loudly before any store is written.
var ErrRoundCount = errors.New("lbm: round delivery does not match the plan's message count")

// valueWireBytes is the model-level size of one ring value on the wire
// (ring.Value is a float64). Stats.RoundBytes counts payload values at this
// size; the framing overhead of a real backend is measured separately by its
// net/* counters.
const valueWireBytes = 8

// Transport moves the real messages of one exchange at a time between nodes.
// Implementations are used by a single execution at a time (engines are not
// concurrent internally), but several executions may each hold their own
// Transport.
type Transport interface {
	// Owned returns the ownership table of nodes 0..n-1: Owned(n)[v]
	// reports whether this participant hosts node v's store. Non-owned
	// stores are inert: writes to them are dropped and their sends are some
	// other participant's job. The table is read-only and fixed for the
	// transport's life — the engines keep it, unchanged, for every run the
	// transport is attached to — so an implementation builds it once and
	// hands the same one out again.
	Owned(n int) []bool
	// Send queues a copy of the payload (one value per lane) of one real
	// message of the exchange tagged tag, from a node this participant owns
	// to any node (which may be local). Calls within an exchange come in
	// model order: round by round, in instruction order within a round.
	Send(tag int, from, to NodeID, payload []ring.Value) error
	// Expect announces one real message of the exchange tagged tag that this
	// participant will receive, lanes values wide, from a node it does not
	// own. Announcements add up over the rounds of the exchange; Deliver
	// holds the sender's owner to the total.
	Expect(tag int, from, to NodeID, lanes int) error
	// Deliver is the barrier: it flushes queued sends, waits for every peer,
	// and verifies that each supplied exactly the values announced by Expect
	// — failing with an error wrapping ErrRoundCount otherwise. It is called
	// exactly once per exchange by every participant, after all of that
	// participant's Sends and Expects for every round the exchange carries,
	// and also checks that the previous exchange's deliveries were consumed
	// in full. tag is the network round index of the exchange's first round;
	// a peer answering with any other tag — that of a later round of the
	// same exchange included — is out of step.
	Deliver(tag int) error
	// Recv copies the payload of the delivered exchange's next real message
	// from from's owner (this participant itself when it owns from) into
	// dst, one value per lane. The engine calls it once per real message
	// whose receiver it owns, after Deliver, in the order the senders' owners
	// called Send: the exchange's rounds in model order, instruction order
	// within each.
	Recv(from, to NodeID, dst []ring.Value) error
}

// Loopback is the in-process Transport: it owns every node and stashes each
// exchange's payloads in one reused slab, so Recv hands them back in order
// without any wire. It exists to exercise the full transport seam —
// ownership table, Send, barrier and in-order consumption — while staying
// bit-identical to the nil-transport engines, which the differential tests
// assert. The zero value is ready to use.
type Loopback struct {
	out, in []ring.Value // this exchange's sends; the delivered exchange being read
	rd      int          // read position in in
}

// allOwned is the all-true table every Loopback hands out, shared so that a
// Loopback made per multiply allocates none. It is never written once
// published; a larger n publishes a longer one.
var allOwned atomic.Pointer[[]bool]

// Owned reports every node owned: a loopback participant hosts them all.
func (lb *Loopback) Owned(n int) []bool {
	if t := allOwned.Load(); t != nil && len(*t) >= n {
		return (*t)[:n:n]
	}
	t := make([]bool, n)
	for v := range t {
		t[v] = true
	}
	allOwned.Store(&t)
	return t
}

// Send appends a copy of the payload to the exchange's slab.
func (lb *Loopback) Send(tag int, from, to NodeID, payload []ring.Value) error {
	lb.out = append(lb.out, payload...)
	return nil
}

// Expect always fails: a loopback participant owns every sender, so no
// message can be owed to it by anyone else.
func (lb *Loopback) Expect(tag int, from, to NodeID, lanes int) error {
	return fmt.Errorf("lbm: loopback exchange %d: expecting node %d's message from a peer, but loopback owns every node: %w", tag, from, ErrRoundCount)
}

// Deliver turns the exchange's sends into its deliveries.
func (lb *Loopback) Deliver(tag int) error {
	if lb.rd != len(lb.in) {
		return fmt.Errorf("lbm: loopback exchange %d: %d delivered values of the previous exchange were never consumed: %w", tag, len(lb.in)-lb.rd, ErrRoundCount)
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
// Per-owned-node charges (Messages, LocalCopies, and the map engine's
// SendLoad and RecvLoad) sum across the disjoint partitions; run-global
// measures every participant observed identically (Rounds, RoundBytes,
// PeakStore as the max over the per-node trajectories it hosts) merge by
// max. Compiled participants report no loads, so their merge has none
// either: the plan's loads are CompiledPlan.AddNodeLoads.
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
	return func(s *settings) { s.transport = t }
}

// ownedTable is the transport's ownership table of n nodes (nil for a nil
// transport), read as it is: the round loops index it instead of asking the
// transport per instruction.
func ownedTable(t Transport, n int) []bool {
	if t == nil {
		return nil
	}
	return t.Owned(n)
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

// setTransport attaches (or, with nil, detaches) a transport and takes its
// ownership table.
func (x *Exec) setTransport(t Transport) {
	x.transport = t
	x.owned = ownedTable(t, x.N)
	x.chain = nil
}

// runRoundVia executes one round through the machine's transport: validate,
// inject, gather owned payloads against the round-start state, exchange real
// messages at the barrier, apply deliveries in instruction order, then
// charge the owned share of the stats. With Loopback (owns-all) every step
// reduces to the nil-transport RunRound exactly. Every network round is an
// exchange of its own here — one barrier per round, tagged with the round —
// which makes the map engine the unfused oracle the compiled engine's fused
// walk (Exec.openExchange, Exec.runRoundVia) is held to; it is not a mode
// anyone selects.
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

// openExchange is the send half of the compiled engine's transport walk, run
// at the first round of exchange e of the chain for every round the exchange
// carries, in model order: all fault verdicts first — so an injected fault
// aborts every participant before anything is queued, leaving no frame in
// flight and the transport reusable — then Send for each real message whose
// sender is owned and Expect for each one owed by another participant, then
// the one barrier. Senders gather from the state at the exchange's first
// round, which the hazard pass (exchange.go) showed equal to each message's
// own round-start state. It is the executor's only Deliver call site.
func (x *Exec) openExchange(c *Chain, s *Schedule, e int) error {
	rounds := s.net[s.exch[e]:s.exch[e+1]]
	if x.injector != nil {
		for _, nr := range rounds {
			cp := c.Plans[nr.plan]
			if err := x.injectRound(cp, int(cp.RoundOff[nr.round]), int(cp.RoundOff[nr.round+1])); err != nil {
				return err
			}
		}
	}
	tr, owned := x.transport, x.owned
	K := x.lanes
	tag := x.stats.Rounds // the network round index of the exchange's first round
	for _, nr := range rounds {
		cp := c.Plans[nr.plan]
		for i, hi := int(cp.RoundOff[nr.round]), int(cp.RoundOff[nr.round+1]); i < hi; i++ {
			from, to := cp.From[i], cp.To[i]
			var err error
			switch {
			case from == to:
			case owned[from]:
				slot := cp.SrcSlot[i]
				if x.stamp[from][slot] != x.epoch {
					return x.missingErr(cp, i)
				}
				err = tr.Send(tag, from, to, x.arena[from][int(slot)*K:(int(slot)+1)*K])
			case owned[to]:
				err = tr.Expect(tag, from, to, K)
			}
			if err != nil {
				return err
			}
		}
	}
	// The barrier runs on every participant, even one that owns none of the
	// exchange's messages: every peer must ack.
	return tr.Deliver(tag)
}

// runRoundVia is the compiled engine's transport round, the receive half of
// the walk: it opens the round's exchange if the round is the first of one,
// then does everything else where the nil-transport path does it — in model
// order, at the round's true start state. The round scratch has the fast
// path's layout (instruction i's lanes at (i-lo)*lanes): owned local copies
// gather into it, Recv fills the positions of the real messages — whose
// payloads left at the exchange's first round — and applyInstr delivers from
// it exactly as the nil-transport path does. Stats and collector events are
// charged per model round, so they do not know about exchanges.
func (x *Exec) runRoundVia(cp *CompiledPlan, t int) error {
	lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
	if hi == lo {
		return nil
	}
	real := int64(cp.Real[t])
	if real > 0 {
		s := x.chain.Schedule()
		if e := x.exch; e < s.Exchanges() && s.net[s.exch[e]] == (netRound{plan: int32(x.chainPlan), round: int32(t)}) {
			if err := x.openExchange(x.chain, s, e); err != nil {
				return err
			}
			x.exch++
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
		if from != cp.To[i] || !owned[from] {
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
					if c != nil {
						c.OnSend(from, to)
					}
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
