package lbm

import (
	"fmt"

	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// NodeID identifies one of the n computers.
type NodeID = int32

// Op says how a delivered payload combines with the destination key.
type Op uint8

const (
	// OpSet stores the payload, replacing any existing value.
	OpSet Op = iota
	// OpAcc adds the payload to the existing value with the ring addition
	// (a free local computation at the receiver; missing values read as the
	// ring Zero).
	OpAcc
	// OpSub subtracts the payload from the existing value. Valid only when
	// the machine's ring is a Field; used by the distributed Strassen
	// multiplier's signed block combinations.
	OpSub
)

// Send is one planned message: node From transmits the value stored under
// Src to node To, which stores it under Dst according to Op. A Send with
// From == To is a free local copy (no communication happens), so routing
// code need not special-case data that is already in place.
type Send struct {
	From, To NodeID
	Src, Dst Key
	Op       Op
}

// Round is the set of messages exchanged in one synchronous round.
type Round []Send

// Plan is a sequence of rounds, precomputed from the support, and at most
// one phase over all of them: a label and structural metrics (κ, tree
// depth, Δ, …) set by Annotate. An Emitter's Route writes the phase around
// the plan's rounds (emit.go).
type Plan struct {
	Rounds  []Round
	phase   string
	metrics map[string]float64
}

// Append adds a round to the plan. Empty rounds are dropped: a round in
// which nobody communicates costs nothing in the model.
func (p *Plan) Append(r Round) {
	if len(r) > 0 {
		p.Rounds = append(p.Rounds, r)
	}
}

// Annotate sets the plan's phase: label and metrics cover every round of the
// plan, a plan of no rounds included. A later Annotate replaces the phase.
func (p *Plan) Annotate(label string, metrics map[string]float64) {
	p.phase, p.metrics = label, metrics
}

// Extend appends all rounds of q after the rounds of p (sequential
// composition). q's phase is not kept: a phase covers a whole plan, so a
// composed plan is annotated as a whole.
func (p *Plan) Extend(q *Plan) { p.Rounds = append(p.Rounds, q.Rounds...) }

// Cost returns what running the plan charges to Stats.Rounds and
// Stats.Messages: the rounds with at least one real (From ≠ To) send, and
// those sends. Rounds are a function of the structure, so a plan's cost is
// known before anything runs.
func (p *Plan) Cost() (rounds, messages int) {
	for _, r := range p.Rounds {
		real := 0
		for _, s := range r {
			if s.From != s.To {
				real++
			}
		}
		if real > 0 {
			rounds++
			messages += real
		}
	}
	return rounds, messages
}

// Stats aggregates everything measured about an execution.
type Stats struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the total number of real (cross-node) messages.
	Messages int64
	// LocalCopies counts From==To sends, which are free in the model.
	LocalCopies int64
	// SendLoad and RecvLoad are per-node totals of real messages. The
	// maximum receive load is itself a lower bound on rounds for this
	// execution, which the lower-bound experiments exploit. The map engine
	// (Machine, the oracle) fills them; a compiled run (Exec) leaves them
	// nil, because they are a property of the plan: CompiledPlan's
	// AddNodeLoads gives them without running anything, and a traced run's
	// Profile records them too.
	SendLoad, RecvLoad []int64
	// RoundBytes is the model-level payload volume of each counted round:
	// real messages × 8 bytes (one ring value), indexed by the Rounds
	// counter. It is lane-invariant — a batched execution reports the same
	// per-round bytes as a scalar one — and backend-invariant: loopback and
	// TCP runs of one plan report identical RoundBytes, while the wire cost
	// including framing is measured separately by the transport's net/*
	// counters.
	RoundBytes []int64
	// PeakStore is the maximum number of values simultaneously held by any
	// single node (memory realism: O(d) for the sparse algorithms).
	PeakStore int
}

// MaxSendLoad returns max_v SendLoad[v].
func (s *Stats) MaxSendLoad() int64 { return maxInt64(s.SendLoad) }

// MaxRecvLoad returns max_v RecvLoad[v].
func (s *Stats) MaxRecvLoad() int64 { return maxInt64(s.RecvLoad) }

func maxInt64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// settings are the execution settings the Options write. Machine and Exec
// both embed them, so one Option list configures either engine and neither
// has to build the other to read its options back.
type settings struct {
	// StoreLimit, when positive, makes the executor fail a round whose
	// deliveries would push any computer's store beyond this many values —
	// an opt-in check of the model's per-computer memory assumption
	// (O(d) for sparse inputs, O(n) for dense ones, §2).
	StoreLimit int

	// collector receives observability events; nil (the default) is the
	// zero-overhead path — every hook is behind a single nil check.
	collector obsv.Collector
	// injector, when non-nil, subjects every round to fault injection (see
	// fault.go).
	injector Injector
	// transport, when non-nil, routes every real message of every round
	// through the communication seam (transport.go) and restricts the engine
	// to the stores the transport owns. nil is the original single-process
	// fast path.
	transport Transport
}

// reset sets s to the defaults with opts applied. It writes in place: a
// settings value that options were applied to through a pointer would
// escape to the heap on every Configure of a pooled executor.
func (s *settings) reset(opts []Option) {
	*s = settings{}
	for _, o := range opts {
		o(s)
	}
}

// Profile and Counter are the collector calls both engines share. Each
// engine has its own BeginPhase and EndPhase: the Machine counts its open
// spans, which a failing Route closes.

// Profile returns the attached collector as an *obsv.Profile when it is
// one (the WithTrace default), and nil otherwise.
func (s *settings) Profile() *obsv.Profile {
	if p, ok := s.collector.(*obsv.Profile); ok {
		return p
	}
	return nil
}

// Counter adds delta to a named metric on the current phase span (a free
// no-op when no collector is attached).
func (s *settings) Counter(name string, delta float64) {
	if s.collector != nil {
		s.collector.Counter(name, delta)
	}
}

// Machine is a low-bandwidth machine with N computers over ring R.
type Machine struct {
	N int
	R ring.Semiring
	settings

	stores []map[Key]ring.Value
	stats  Stats
	field  ring.Field // non-nil iff R is a Field; required by OpSub
	// netRound is the global network round counter the injector is indexed
	// by.
	netRound int
	owned    []bool       // owned[v]: the transport hosts node v here (read-only)
	viaVals  []ring.Value // runRoundVia's round scratch, reused
	// split is the rounds counted at MarkSplit (emit.go), and open the
	// phase spans open now, which a failing Route closes.
	split, open int

	// round-scoped scratch for O(1) constraint checks
	sentAt, recvAt []int32
	roundStamp     int32
}

// Option configures a Machine or an Exec.
type Option func(*settings)

// WithStoreLimit enables the per-computer memory check at the given number
// of simultaneously stored values.
func WithStoreLimit(limit int) Option {
	return func(s *settings) { s.StoreLimit = limit }
}

// WithCollector attaches an observability collector to a new machine.
func WithCollector(c obsv.Collector) Option {
	return func(s *settings) { s.collector = c }
}

// WithTrace enables round tracing on a new machine by attaching a fresh
// obsv.Profile collector.
func WithTrace() Option {
	return func(s *settings) {
		if s.collector == nil {
			s.collector = obsv.NewProfile()
		}
	}
}

// BeginPhase opens a nested phase span on the collector (free no-op when
// observability is off).
func (m *Machine) BeginPhase(label string) {
	m.open++
	if m.collector != nil {
		m.collector.BeginPhase(label)
	}
}

// EndPhase closes the innermost open phase span.
func (m *Machine) EndPhase() {
	m.open--
	if m.collector != nil {
		m.collector.EndPhase()
	}
}

// New returns a machine with n computers, all stores empty.
func New(n int, r ring.Semiring, opts ...Option) *Machine {
	m := &Machine{
		N:      n,
		R:      r,
		stores: make([]map[Key]ring.Value, n),
		sentAt: make([]int32, n),
		recvAt: make([]int32, n),
	}
	m.settings.reset(opts)
	for i := range m.stores {
		m.stores[i] = make(map[Key]ring.Value)
	}
	if f, ok := ring.AsField(r); ok {
		m.field = f
	}
	m.stats.SendLoad = make([]int64, n)
	m.stats.RecvLoad = make([]int64, n)
	for i := range m.sentAt {
		m.sentAt[i] = -1
		m.recvAt[i] = -1
	}
	m.owned = ownedTable(m.transport, n)
	return m
}

// Stats returns a snapshot of the execution statistics so far.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.SendLoad = append([]int64(nil), m.stats.SendLoad...)
	s.RecvLoad = append([]int64(nil), m.stats.RecvLoad...)
	s.RoundBytes = append([]int64(nil), m.stats.RoundBytes...)
	return s
}

// Rounds returns the number of rounds executed so far.
func (m *Machine) Rounds() int { return m.stats.Rounds }

// Get reads the value stored at node under key.
func (m *Machine) Get(node NodeID, k Key) (ring.Value, bool) {
	v, ok := m.stores[node][k]
	return v, ok
}

// MustGet reads a value that must be present.
func (m *Machine) MustGet(node NodeID, k Key) ring.Value {
	v, ok := m.stores[node][k]
	if !ok {
		panic(fmt.Sprintf("lbm: node %d missing key %v", node, k))
	}
	return v
}

// Put stores a value at node. Intended for input loading and free local
// computation; it never moves data between nodes. Under a transport, writes
// to non-owned stores are dropped: every participant drives the same loading
// code and keeps only its own share.
func (m *Machine) Put(node NodeID, k Key, v ring.Value) {
	if !m.Owns(node) {
		return
	}
	st := m.stores[node]
	st[k] = v
	if len(st) > m.stats.PeakStore {
		m.stats.PeakStore = len(st)
	}
}

// Acc adds v into the value at node under k (missing reads as Zero). Like
// Put, it is a no-op on stores the transport does not own.
func (m *Machine) Acc(node NodeID, k Key, v ring.Value) {
	if !m.Owns(node) {
		return
	}
	st := m.stores[node]
	cur, ok := st[k]
	if !ok {
		cur = m.R.Zero()
	}
	st[k] = m.R.Add(cur, v)
	if len(st) > m.stats.PeakStore {
		m.stats.PeakStore = len(st)
	}
}

// Clear removes a key from a node's store (free local computation).
func (m *Machine) Clear(node NodeID, k Key) { delete(m.stores[node], k) }

// checkRound validates the model constraints for one round and returns the
// number of real messages, or an error naming the offending send.
func (m *Machine) checkRound(r Round) (int64, error) {
	m.roundStamp++
	stamp := m.roundStamp
	var real int64
	for _, s := range r {
		if s.From < 0 || int(s.From) >= m.N || s.To < 0 || int(s.To) >= m.N {
			return 0, fmt.Errorf("lbm: send %v -> %v out of range (n=%d)", s.From, s.To, m.N)
		}
		if s.Op == OpSub && m.field == nil {
			return 0, fmt.Errorf("lbm: OpSub requires a field, ring %s is not one", m.R.Name())
		}
		if s.From == s.To {
			continue
		}
		if m.sentAt[s.From] == stamp {
			return 0, fmt.Errorf("lbm: node %d sends twice in one round (key %v)", s.From, s.Src)
		}
		if m.recvAt[s.To] == stamp {
			return 0, fmt.Errorf("lbm: node %d receives twice in one round (key %v)", s.To, s.Dst)
		}
		m.sentAt[s.From] = stamp
		m.recvAt[s.To] = stamp
		real++
	}
	return real, nil
}

// RunRound executes one synchronous round: all payloads are read from the
// senders' stores against the round-start state, then delivered. It returns
// an error if the round violates the model — including a StoreLimit
// violation, which is detected against the prospective post-delivery store
// sizes *before* any value is delivered — leaving both stats and stores
// untouched.
func (m *Machine) RunRound(r Round) error {
	if m.transport != nil {
		return m.runRoundVia(r)
	}
	real, err := m.checkRound(r)
	if err != nil {
		return err
	}
	if m.injector != nil {
		if err := m.injectRound(r); err != nil {
			return err
		}
	}
	payloads, err := m.gather(r)
	if err != nil {
		return err
	}
	if m.StoreLimit > 0 {
		if err := m.checkStoreLimit(r); err != nil {
			return err
		}
	}
	m.deliver(r, payloads)
	if real > 0 {
		m.stats.Rounds++
		m.stats.Messages += real
		m.stats.RoundBytes = append(m.stats.RoundBytes, real*valueWireBytes)
		c := m.collector
		var locals int64
		for _, s := range r {
			if s.From != s.To {
				m.stats.SendLoad[s.From]++
				m.stats.RecvLoad[s.To]++
				if c != nil {
					c.OnSend(s.From, s.To)
				}
			} else {
				locals++
			}
		}
		m.stats.LocalCopies += locals
		if c != nil {
			c.OnRound(int(real), int(locals))
		}
	} else if len(r) > 0 {
		// A round of only local copies costs nothing.
		m.stats.LocalCopies += int64(len(r))
	}
	return nil
}

// checkStoreLimit verifies that delivering the round would keep every
// receiver's store within StoreLimit, without mutating anything. Distinct
// new destination keys are counted per node (every Op creates a missing
// destination), so the check sees exactly the post-delivery store sizes.
func (m *Machine) checkStoreLimit(r Round) error {
	type nodeKey struct {
		node NodeID
		k    Key
	}
	var seen map[nodeKey]struct{}
	add := map[NodeID]int{}
	for _, s := range r {
		if !m.Owns(s.To) {
			// Non-owned stores live (and are limit-checked) elsewhere.
			continue
		}
		if _, ok := m.stores[s.To][s.Dst]; ok {
			continue
		}
		nk := nodeKey{s.To, s.Dst}
		if seen == nil {
			seen = map[nodeKey]struct{}{}
		} else if _, dup := seen[nk]; dup {
			continue
		}
		seen[nk] = struct{}{}
		add[s.To]++
		if after := len(m.stores[s.To]) + add[s.To]; after > m.StoreLimit {
			return fmt.Errorf("lbm: node %d exceeds the store limit (%d > %d values)",
				s.To, after, m.StoreLimit)
		}
	}
	return nil
}

func (m *Machine) gather(r Round) ([]ring.Value, error) {
	payloads := make([]ring.Value, len(r))
	for idx, s := range r {
		v, ok := m.stores[s.From][s.Src]
		if !ok {
			return nil, fmt.Errorf("lbm: node %d cannot send missing key %v", s.From, s.Src)
		}
		payloads[idx] = v
	}
	return payloads, nil
}

func (m *Machine) deliver(r Round, payloads []ring.Value) {
	for idx, s := range r {
		st := m.stores[s.To]
		m.applyOp(st, s.Dst, s.Op, payloads[idx])
		if len(st) > m.stats.PeakStore {
			m.stats.PeakStore = len(st)
		}
	}
}

// applyOp merges a delivered payload into a store slot.
func (m *Machine) applyOp(st map[Key]ring.Value, dst Key, op Op, payload ring.Value) {
	switch op {
	case OpAcc:
		cur, ok := st[dst]
		if !ok {
			cur = m.R.Zero()
		}
		st[dst] = m.R.Add(cur, payload)
	case OpSub:
		cur, ok := st[dst]
		if !ok {
			cur = m.R.Zero()
		}
		st[dst] = m.field.Sub(cur, payload)
	default:
		st[dst] = payload
	}
}

// Run executes every round of the plan in order. The plan's phase is
// written by Route, not by Run.
func (m *Machine) Run(p *Plan) error {
	for t, r := range p.Rounds {
		if err := m.RunRound(r); err != nil {
			return fmt.Errorf("round %d: %w", t, err)
		}
	}
	return nil
}
