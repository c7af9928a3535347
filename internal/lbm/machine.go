package lbm

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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

// Plan is a sequence of rounds, precomputed from the support.
type Plan struct {
	Rounds []Round
	// Spans are builder-attached phase annotations over round index ranges
	// of this plan; when the plan runs on a machine with a collector, the
	// executor replays them as phase spans (see Machine.Run).
	Spans []PhaseSpan
}

// PhaseSpan annotates rounds [Start, End) of a plan with a builder phase
// and optional structural metrics (κ, tree depth, Δ, …). Start == End marks
// a zero-round phase, which the executor still reports so phases that
// happened to need no communication stay visible.
type PhaseSpan struct {
	Label      string
	Start, End int
	Metrics    map[string]float64
}

// Append adds a round to the plan. Empty rounds are dropped: a round in
// which nobody communicates costs nothing in the model.
func (p *Plan) Append(r Round) {
	if len(r) > 0 {
		p.Rounds = append(p.Rounds, r)
	}
}

// Annotate attaches a phase span covering every round currently in the
// plan. Builders call it on a finished sub-plan; Extend keeps the span
// anchored when plans are composed.
func (p *Plan) Annotate(label string, metrics map[string]float64) {
	p.Spans = append(p.Spans, PhaseSpan{Label: label, Start: 0, End: len(p.Rounds), Metrics: metrics})
}

// Extend appends all rounds of q after the rounds of p (sequential
// composition). Phase spans of q shift with its rounds.
func (p *Plan) Extend(q *Plan) {
	off := len(p.Rounds)
	p.Rounds = append(p.Rounds, q.Rounds...)
	for _, s := range q.Spans {
		s.Start += off
		s.End += off
		p.Spans = append(p.Spans, s)
	}
}

// NumRounds returns the number of (non-empty) rounds in the plan.
func (p *Plan) NumRounds() int { return len(p.Rounds) }

// MergeParallel overlays several plans that use disjoint sets of computers:
// round t of the result is the union of round t of every input. The
// machine's validator still checks the per-node constraints, so an invalid
// overlay (shared computers) is caught at execution time. Phase spans of the
// inputs are carried over, prefixed with the input's position ("p3/label"),
// so overlaid plans stay visible to the observability layer; span endpoints
// are remapped when the union drops empty rounds.
func MergeParallel(plans ...*Plan) *Plan {
	out := &Plan{}
	maxLen := 0
	for _, p := range plans {
		if len(p.Rounds) > maxLen {
			maxLen = len(p.Rounds)
		}
	}
	// outAt[t] is the index in the merged plan of the union round t; a
	// dropped (all-empty) union round maps to the next kept one, so spans
	// over it collapse to zero rounds instead of shifting onto neighbours.
	outAt := make([]int, maxLen+1)
	for t := 0; t < maxLen; t++ {
		outAt[t] = len(out.Rounds)
		var r Round
		for _, p := range plans {
			if t < len(p.Rounds) {
				r = append(r, p.Rounds[t]...)
			}
		}
		out.Append(r)
	}
	outAt[maxLen] = len(out.Rounds)
	for pi, p := range plans {
		for _, s := range p.Spans {
			if s.Start < 0 || s.End < s.Start || s.End > len(p.Rounds) {
				continue // malformed span; validation reports it elsewhere
			}
			out.Spans = append(out.Spans, PhaseSpan{
				Label:   fmt.Sprintf("p%d/%s", pi, s.Label),
				Start:   outAt[s.Start],
				End:     outAt[s.End],
				Metrics: s.Metrics,
			})
		}
	}
	return out
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
	// execution, which the lower-bound experiments exploit.
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
	// Workers sets the Machine's execution engine: ≤1 means the
	// deterministic sequential engine, larger values use that many
	// goroutines per round phase. Rounds are natural barriers, mirroring the
	// bulk-synchronous structure of the model. Exec does not read it: the
	// compiled engine is sequential.
	Workers int
	// ParBatch is the minimum round size worth parallelizing; smaller
	// rounds run sequentially even under the goroutine engine. Exec does not
	// read it.
	ParBatch int
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

// newSettings applies opts over the defaults.
func newSettings(opts []Option) settings {
	s := settings{ParBatch: 4096}
	for _, o := range opts {
		o(&s)
	}
	return s
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
	owned    []bool       // owned[v]: the transport hosts node v here
	viaVals  []ring.Value // runRoundVia's round scratch, reused

	// round-scoped scratch for O(1) constraint checks
	sentAt, recvAt []int32
	roundStamp     int32
}

// Option configures a Machine or an Exec.
type Option func(*settings)

// WithWorkers selects the Machine's goroutine engine with w workers. An Exec
// accepts and ignores it: the compiled engine is sequential.
func WithWorkers(w int) Option { return func(s *settings) { s.Workers = w } }

// WithAutoWorkers selects the Machine's goroutine engine sized to the host
// CPU. An Exec accepts and ignores it.
func WithAutoWorkers() Option {
	return func(s *settings) { s.Workers = runtime.GOMAXPROCS(0) }
}

// WithParBatch lowers the minimum per-round send count before the Machine's
// Workers engine parallelizes (default 4096). Tests use small values to
// force the parallel path on small instances. An Exec accepts and ignores it.
func WithParBatch(b int) Option {
	return func(s *settings) {
		if b > 0 {
			s.ParBatch = b
		}
	}
}

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

// SetCollector attaches (or, with nil, detaches) a collector.
func (m *Machine) SetCollector(c obsv.Collector) { m.collector = c }

// Collector returns the attached collector, or nil.
func (m *Machine) Collector() obsv.Collector { return m.collector }

// Profile returns the attached collector as an *obsv.Profile when it is
// one (the WithTrace default), and nil otherwise.
func (m *Machine) Profile() *obsv.Profile {
	if p, ok := m.collector.(*obsv.Profile); ok {
		return p
	}
	return nil
}

// BeginPhase opens a nested phase span on the collector (free no-op when
// observability is off).
func (m *Machine) BeginPhase(label string) {
	if m.collector != nil {
		m.collector.BeginPhase(label)
	}
}

// EndPhase closes the innermost open phase span.
func (m *Machine) EndPhase() {
	if m.collector != nil {
		m.collector.EndPhase()
	}
}

// Counter adds delta to a named metric on the current phase span.
func (m *Machine) Counter(name string, delta float64) {
	if m.collector != nil {
		m.collector.Counter(name, delta)
	}
}

// Mark annotates the current position in the round timeline with a phase
// label (free; no-op when no collector is attached). The label anchors to
// the next counted round: if the rounds that follow are all empty or
// local-only, the label merges into the next real round's boundary instead
// of vanishing.
func (m *Machine) Mark(label string) {
	if m.collector != nil {
		m.collector.Mark(label)
	}
}

// New returns a machine with n computers, all stores empty.
func New(n int, r ring.Semiring, opts ...Option) *Machine {
	m := &Machine{
		N:        n,
		R:        r,
		settings: newSettings(opts),
		stores:   make([]map[Key]ring.Value, n),
		sentAt:   make([]int32, n),
		recvAt:   make([]int32, n),
	}
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
	m.owned = ownedTable(m.transport, n, nil)
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

// Del removes a key from a node's store (free local computation).
func (m *Machine) Del(node NodeID, k Key) { delete(m.stores[node], k) }

// StoreLen returns the number of values currently held by node.
func (m *Machine) StoreLen(node NodeID) int { return len(m.stores[node]) }

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
	read := func(lo, hi int) error {
		for idx := lo; idx < hi; idx++ {
			s := r[idx]
			v, ok := m.stores[s.From][s.Src]
			if !ok {
				return fmt.Errorf("lbm: node %d cannot send missing key %v", s.From, s.Src)
			}
			payloads[idx] = v
		}
		return nil
	}
	if m.Workers <= 1 || len(r) < m.ParBatch {
		return payloads, read(0, len(r))
	}
	var wg sync.WaitGroup
	errs := make([]error, m.Workers)
	chunk := (len(r) + m.Workers - 1) / m.Workers
	for w := 0; w < m.Workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(r) {
			hi = len(r)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = read(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return payloads, nil
}

func (m *Machine) deliver(r Round, payloads []ring.Value) {
	write := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			s := r[idx]
			st := m.stores[s.To]
			m.applyOp(st, s.Dst, s.Op, payloads[idx])
			if len(st) > m.stats.PeakStore {
				m.stats.PeakStore = len(st)
			}
		}
	}
	// Receivers are unique within a valid round except for local copies;
	// local copies share From==To with at most ... still unique To? A node
	// may appear as To of a local copy and of a real message in the same
	// round. To stay race-free, the parallel engine shards by receiver.
	if m.Workers <= 1 || len(r) < m.ParBatch {
		write(0, len(r))
		return
	}
	var wg sync.WaitGroup
	var peakMu sync.Mutex
	peak := m.stats.PeakStore
	for w := 0; w < m.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			localPeak := 0
			for idx := range r {
				s := r[idx]
				if int(s.To)%m.Workers != w {
					continue
				}
				st := m.stores[s.To]
				m.applyOp(st, s.Dst, s.Op, payloads[idx])
				if len(st) > localPeak {
					localPeak = len(st)
				}
			}
			peakMu.Lock()
			if localPeak > peak {
				peak = localPeak
			}
			peakMu.Unlock()
		}(w)
	}
	wg.Wait()
	m.stats.PeakStore = peak
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

// Run executes every round of the plan in order. When a collector is
// attached and the plan carries builder phase spans, the spans are replayed
// as phases around the rounds they cover.
func (m *Machine) Run(p *Plan) error {
	if m.collector == nil || len(p.Spans) == 0 {
		for t, r := range p.Rounds {
			if err := m.RunRound(r); err != nil {
				return fmt.Errorf("round %d: %w", t, err)
			}
		}
		return nil
	}
	return m.runSpanned(p)
}

// runSpanned executes a plan while opening and closing its phase spans on
// the collector. Spans must be non-overlapping or properly nested (builders
// produce them that way); they are replayed outermost-first.
func (m *Machine) runSpanned(p *Plan) error {
	return runWithSpans(m.collector, p.Spans, len(p.Rounds), func(t int) error {
		return m.RunRound(p.Rounds[t])
	})
}

// runWithSpans drives a round executor while replaying phase spans on a
// collector. It is shared by the map engine (Machine.runSpanned) and the
// compiled engine (Exec.Run), so both report byte-identical span trees.
func runWithSpans(c obsv.Collector, planSpans []PhaseSpan, rounds int, runRound func(t int) error) error {
	spans := append([]PhaseSpan(nil), planSpans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	si := 0
	var stack []PhaseSpan
	closeTo := func(t int) {
		for len(stack) > 0 && stack[len(stack)-1].End <= t {
			c.EndPhase()
			stack = stack[:len(stack)-1]
		}
	}
	emit := func(sp PhaseSpan) {
		c.BeginPhase(sp.Label)
		for _, k := range sortedMetricKeys(sp.Metrics) {
			c.Counter(k, sp.Metrics[k])
		}
	}
	for t := 0; t <= rounds; t++ {
		closeTo(t)
		for si < len(spans) && spans[si].Start == t {
			sp := spans[si]
			si++
			if sp.End <= sp.Start {
				// Zero-round phase: report and close immediately.
				emit(sp)
				c.EndPhase()
				continue
			}
			emit(sp)
			stack = append(stack, sp)
		}
		if t == rounds {
			break
		}
		if err := runRound(t); err != nil {
			closeTo(rounds + 1)
			return fmt.Errorf("round %d: %w", t, err)
		}
	}
	closeTo(rounds + 1)
	return nil
}

func sortedMetricKeys(m map[string]float64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LocalAll applies a free local-computation step to every node. The callback
// receives a view restricted to that node. With the goroutine engine the
// nodes are processed in parallel.
func (m *Machine) LocalAll(f func(node NodeID, v *LocalView)) {
	if m.Workers <= 1 {
		for i := 0; i < m.N; i++ {
			lv := LocalView{m: m, node: NodeID(i)}
			f(NodeID(i), &lv)
		}
		m.refreshPeak()
		return
	}
	var wg sync.WaitGroup
	chunk := (m.N + m.Workers - 1) / m.Workers
	for w := 0; w < m.Workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m.N {
			hi = m.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				lv := LocalView{m: m, node: NodeID(i)}
				f(NodeID(i), &lv)
			}
		}(lo, hi)
	}
	wg.Wait()
	m.refreshPeak()
}

func (m *Machine) refreshPeak() {
	for i := range m.stores {
		if len(m.stores[i]) > m.stats.PeakStore {
			m.stats.PeakStore = len(m.stores[i])
		}
	}
}

// LocalView is a node-restricted store handle passed to local steps. Local
// steps must only touch their own node's data; the view makes that the path
// of least resistance.
type LocalView struct {
	m    *Machine
	node NodeID
}

// Node returns the node this view belongs to.
func (v *LocalView) Node() NodeID { return v.node }

// Get reads a local value.
func (v *LocalView) Get(k Key) (ring.Value, bool) { return v.m.Get(v.node, k) }

// Put writes a local value.
func (v *LocalView) Put(k Key, val ring.Value) {
	// Peak tracking happens in LocalAll's refresh; write directly.
	v.m.stores[v.node][k] = val
}

// Acc accumulates into a local value.
func (v *LocalView) Acc(k Key, val ring.Value) {
	st := v.m.stores[v.node]
	cur, ok := st[k]
	if !ok {
		cur = v.m.R.Zero()
	}
	st[k] = v.m.R.Add(cur, val)
}

// Del removes a local value.
func (v *LocalView) Del(k Key) { delete(v.m.stores[v.node], k) }

// Each iterates over the node's current store. Mutating during iteration is
// not allowed; collect keys first.
func (v *LocalView) Each(f func(k Key, val ring.Value)) {
	for k, val := range v.m.stores[v.node] {
		f(k, val)
	}
}

// Ring returns the machine's ring.
func (v *LocalView) Ring() ring.Semiring { return v.m.R }

// Reset clears all stores and statistics, returning the machine to its
// freshly-constructed state (engine settings are kept). Prepared-plan
// workloads reuse one machine across many value sets without reallocating
// the n stores.
func (m *Machine) Reset() {
	for i := range m.stores {
		clear(m.stores[i])
	}
	m.stats = Stats{
		SendLoad:   m.stats.SendLoad,
		RecvLoad:   m.stats.RecvLoad,
		RoundBytes: m.stats.RoundBytes[:0],
	}
	for i := range m.stats.SendLoad {
		m.stats.SendLoad[i] = 0
		m.stats.RecvLoad[i] = 0
	}
	m.netRound = 0
	if p := m.Profile(); p != nil {
		p.Reset()
	}
}
