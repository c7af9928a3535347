package lbm

import (
	"fmt"

	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// Exec is the compiled engine: the run-time counterpart of CompiledPlan.
// Where Machine resolves every Send through per-node map[Key]ring.Value
// lookups, Exec holds one dense []ring.Value arena per node and executes
// the flat instruction stream with array indexing only — no hashing, no
// per-delivery allocation. Presence (a store "holding" a value) is tracked
// with per-slot epoch stamps, so Reset is O(1) bookkeeping plus stat
// clearing rather than an arena sweep, which is what makes pooled reuse by
// the serving layer allocation-free in steady state.
//
// Exec mirrors the Machine's totals exactly: the same Rounds, Messages,
// LocalCopies, RoundBytes and PeakStore, the same collector events, the
// same phase-span replay (via the shared runWithSpans walk) and the same
// StoreLimit semantics. It does not count per-node loads: every routing
// decision is a function of the structure, so SendLoad and RecvLoad are a
// property of the plan (CompiledPlan.AddNodeLoads), not of a run, and
// Exec's Stats leave them nil. A traced run still sees them, through the
// collector's OnSend events. The map engine stays the reference oracle; the
// differential tests in internal/algo hold the two to identical outputs and
// identical totals, and the map engine's loads to the plan's.
//
// An executor may carry more than one lane (NewExecBatch): each slot then
// holds lanes contiguous values, one per value-assignment, and a single
// instruction-stream walk moves all lanes of every slot. Presence is a
// function of the structure alone — every lane realizes the same support —
// so stamps, live counts, StoreLimit and fault injection stay per-slot and
// are checked once per instruction, not once per lane. That is the batching
// win: the walk, the presence bookkeeping and the stats replay amortize
// over lanes, leaving only the per-lane value arithmetic.
//
// An executor belongs to the machine (N computers, a lane count), not to a
// plan: the per-node arenas and stamps are capped views into one value slab
// and one stamp slab, and Fit re-lays them for another plan's arena sizes,
// growing a slab only when that plan needs more slots than it holds. What a
// previous run — of this plan or another — left in a slot is never read as
// a value: every slot is absent after Reset, and a slot is read only once
// the run has written it.
type Exec struct {
	N int
	R ring.Semiring
	// StoreLimit, the collector, the injector and the transport have
	// Machine's semantics; a nil transport is the original single-process
	// fast path. Every round is walked sequentially; parallelism comes from
	// the callers, across requests (worker slots) and across lanes (batches).
	settings

	field ring.Field
	// netRound mirrors Machine's fault-injection round counter (fault.go).
	netRound int
	owned    []bool // owned[v]: the transport hosts node v here (setTransport)
	// chain, chainPlan and exch are the transport walk's position in the
	// exchange schedule of the chain being run (exchange.go): the plan of
	// the chain now running and the next exchange to open.
	chain     *Chain
	chainPlan int
	exch      int

	lanes int            // values per slot (≥1); see NewExecBatch
	arena [][]ring.Value // lane-strided: slot s lane l at s*lanes+l
	stamp [][]uint32     // slot present iff stamp == epoch
	// vals and stamps are the slabs arena and stamp view, node by node;
	// laid is the sizes slice the views were last laid out for (Fit).
	vals   []ring.Value
	stamps []uint32
	laid   []int32
	epoch  uint32
	live   []int32 // per-node count of present slots (the map engine's len(store))

	stats   Stats
	payload []ring.Value // gather scratch, reused across rounds
	// lane is a product's per-lane scratch, Lanes long; leaf is a leaf
	// block product's A, B and C scratch, grown to the largest leaf of a
	// program run (RunProgram).
	lane, leaf []ring.Value
}

// NewExec returns a single-lane executor with the given per-node arena
// sizes over ring r. Machine options (WithStoreLimit, WithCollector,
// WithTrace, WithInjector, WithTransport) apply with identical meaning.
func NewExec(sizes []int32, r ring.Semiring, opts ...Option) *Exec {
	return NewExecBatch(sizes, 1, r, opts...)
}

// NewExecBatch returns an executor whose every slot holds lanes values —
// one per value-assignment of a batched run. One Run walks the instruction
// stream once and moves all lanes; lane l of the arenas is loaded and read
// through PutLane/GetLane. lanes < 1 is treated as 1. Options are NewExec's.
// The arenas are laid out by Fit, so construction makes a constant number
// of allocations whatever the number of nodes.
func NewExecBatch(sizes []int32, lanes int, r ring.Semiring, opts ...Option) *Exec {
	if lanes < 1 {
		lanes = 1
	}
	x := &Exec{
		N:     len(sizes),
		lanes: lanes,
		arena: make([][]ring.Value, len(sizes)),
		stamp: make([][]uint32, len(sizes)),
		epoch: 1,
		live:  make([]int32, len(sizes)),
	}
	x.settings.reset(opts)
	x.Fit(sizes, r)
	x.setTransport(x.transport)
	return x
}

// Fit lays the executor out for a plan over ring r whose node v needs
// sizes[v] slots, on the same N computers and lane count: node v's arena
// and stamps become capped views (len = cap) of the next sizes[v] slots of
// the slabs, so no node can append into its neighbour. A slab is replaced
// by a larger, zeroed one only when the plan needs more slots than it
// holds. Called again with the sizes slice it was last laid out for, Fit
// only sets the ring. It must follow construction or Reset: every slot is
// then absent, since every stamp Reset leaves is below the epoch and a new
// slab is zero, and Fit keeps it so. The sizes slice must not change while
// the executor is laid out for it.
func (x *Exec) Fit(sizes []int32, r ring.Semiring) {
	if len(sizes) != x.N {
		panic(fmt.Sprintf("lbm: fitting a %d-computer plan to a %d-computer executor", len(sizes), x.N))
	}
	x.R = r
	x.field, _ = ring.AsField(r)
	if len(x.lane) != x.lanes {
		x.lane = make([]ring.Value, x.lanes)
	}
	if len(sizes) == len(x.laid) && (len(sizes) == 0 || &sizes[0] == &x.laid[0]) {
		return
	}
	total := 0
	for _, sz := range sizes {
		total += int(sz)
	}
	if total > len(x.stamps) {
		x.stamps = make([]uint32, total)
	}
	K := x.lanes
	if total*K > len(x.vals) {
		x.vals = make([]ring.Value, total*K)
	}
	lo := 0
	for v, sz := range sizes {
		hi := lo + int(sz)
		x.stamp[v] = x.stamps[lo:hi:hi]
		x.arena[v] = x.vals[lo*K : hi*K : hi*K]
		lo = hi
	}
	x.laid = sizes
}

// Lanes returns the number of values each slot holds (1 for NewExec).
func (x *Exec) Lanes() int { return x.lanes }

// Configure re-applies Machine options to a (typically pooled) executor
// before a run. Unspecified options revert to their New defaults, so a
// recycled executor behaves exactly like a fresh one.
func (x *Exec) Configure(opts ...Option) {
	x.settings.reset(opts)
	x.setTransport(x.transport)
}

// Profile returns the attached collector as an *obsv.Profile when it is
// one, mirroring Machine.Profile.
func (x *Exec) Profile() *obsv.Profile {
	if p, ok := x.collector.(*obsv.Profile); ok {
		return p
	}
	return nil
}

// BeginPhase opens a nested phase span on the collector.
func (x *Exec) BeginPhase(label string) {
	if x.collector != nil {
		x.collector.BeginPhase(label)
	}
}

// EndPhase closes the innermost open phase span.
func (x *Exec) EndPhase() {
	if x.collector != nil {
		x.collector.EndPhase()
	}
}

// Counter adds delta to a named metric on the current phase span.
func (x *Exec) Counter(name string, delta float64) {
	if x.collector != nil {
		x.collector.Counter(name, delta)
	}
}

// Mark annotates the round timeline with a flat phase label.
func (x *Exec) Mark(label string) {
	if x.collector != nil {
		x.collector.Mark(label)
	}
}

// Stats returns a snapshot of the execution statistics so far. SendLoad
// and RecvLoad are nil: a compiled run's loads are its plan's.
func (x *Exec) Stats() Stats {
	s := x.stats
	s.RoundBytes = append([]int64(nil), x.stats.RoundBytes...)
	return s
}

// Rounds returns the number of counted rounds executed so far.
func (x *Exec) Rounds() int { return x.stats.Rounds }

// StoreLen returns the number of values currently held by node.
func (x *Exec) StoreLen(node NodeID) int { return int(x.live[node]) }

// present reports whether a slot currently holds a value.
func (x *Exec) present(node int32, slot int32) bool {
	return x.stamp[node][slot] == x.epoch
}

// Present reports whether a slot currently holds a value.
func (x *Exec) Present(r SlotRef) bool { return x.present(int32(r.Node), r.Slot) }

// markPresent flags a slot as holding a value, maintaining the live count
// and the peak-store statistic exactly as the map engine's applyOp does.
func (x *Exec) markPresent(node int32, slot int32) {
	if x.stamp[node][slot] != x.epoch {
		x.stamp[node][slot] = x.epoch
		x.live[node]++
		if int(x.live[node]) > x.stats.PeakStore {
			x.stats.PeakStore = int(x.live[node])
		}
	}
}

// GetSlot reads the lane-0 value at a slot, reporting presence. On a
// multi-lane executor use GetLane for the other lanes.
func (x *Exec) GetSlot(r SlotRef) (ring.Value, bool) { return x.GetLane(r, 0) }

// GetLane reads the value of one lane of a slot, reporting presence (which
// is per-slot: every lane realizes the same structure).
func (x *Exec) GetLane(r SlotRef, lane int) (ring.Value, bool) {
	if !x.present(int32(r.Node), r.Slot) {
		var zero ring.Value
		return zero, false
	}
	return x.arena[r.Node][int(r.Slot)*x.lanes+lane], true
}

// MustGetSlot reads a lane-0 value that must be present.
func (x *Exec) MustGetSlot(r SlotRef) ring.Value { return x.MustGetLane(r, 0) }

// MustGetLane reads one lane of a slot that must be present.
func (x *Exec) MustGetLane(r SlotRef, lane int) ring.Value {
	if !x.present(int32(r.Node), r.Slot) {
		panic(fmt.Sprintf("lbm: node %d missing slot %d", r.Node, r.Slot))
	}
	return x.arena[r.Node][int(r.Slot)*x.lanes+lane]
}

// PutSlot stores a lane-0 value at a slot (free local computation).
func (x *Exec) PutSlot(r SlotRef, v ring.Value) { x.PutLane(r, 0, v) }

// PutLane stores one lane of a slot. Loading a multi-lane executor must put
// every lane of a slot: presence is per-slot, so a partially loaded slot
// would expose stale values on its unwritten lanes. Under a transport,
// writes to non-owned stores are dropped (see Machine.Put).
func (x *Exec) PutLane(r SlotRef, lane int, v ring.Value) {
	if !x.Owns(r.Node) {
		return
	}
	x.arena[r.Node][int(r.Slot)*x.lanes+lane] = v
	x.markPresent(int32(r.Node), r.Slot)
}

// BeginLoad marks slots [0, loaded[v]) present on every owned node v and
// returns the arenas, for the caller to fill every lane of those slots
// (slot s lane l at arena[v][s*Lanes+l]) before the first Run. It is the
// bulk load of a structure whose input slots were numbered first on every
// node, so presence is known without looking at any value. dead[v] (nil for
// none) counts values node v holds that no instruction ever touches and that
// therefore have no slot: they count toward the store, as they do in the
// map engine. Live counts and PeakStore end where putting every value one
// by one would leave them. Writes to a non-owned node's arena are never
// read: its slots stay absent.
func (x *Exec) BeginLoad(loaded, dead []int32) [][]ring.Value {
	for v, n := range loaded {
		if !x.Owns(NodeID(v)) {
			continue
		}
		st := x.stamp[v][:n]
		added := int32(0)
		for s := range st {
			if st[s] != x.epoch {
				st[s] = x.epoch
				added++
			}
		}
		if dead != nil {
			added += dead[v]
		}
		x.live[v] += added
		if int(x.live[v]) > x.stats.PeakStore {
			x.stats.PeakStore = int(x.live[v])
		}
	}
	return x.arena
}

// AccSlot adds v into the slot's lane-0 value (missing reads as the ring
// Zero). Multi-lane accumulation goes through AccLanes: presence is
// per-slot, so accumulating lane by lane into an absent slot would mark it
// present after the first lane and read stale values on the rest.
func (x *Exec) AccSlot(r SlotRef, v ring.Value) {
	if !x.Owns(r.Node) {
		return
	}
	cur := x.R.Zero()
	i := int(r.Slot) * x.lanes
	if x.present(int32(r.Node), r.Slot) {
		cur = x.arena[r.Node][i]
	}
	x.arena[r.Node][i] = x.R.Add(cur, v)
	x.markPresent(int32(r.Node), r.Slot)
}

// MustLanes returns the live lane slice of a slot that must be present
// (len = Lanes). The slice aliases the arena; callers read it, they do not
// keep or mutate it.
func (x *Exec) MustLanes(r SlotRef) []ring.Value {
	if !x.present(int32(r.Node), r.Slot) {
		panic(fmt.Sprintf("lbm: node %d missing slot %d", r.Node, r.Slot))
	}
	i := int(r.Slot) * x.lanes
	return x.arena[r.Node][i : i+x.lanes]
}

// AccLanes adds vs[l] into lane l of the slot for every lane, with the
// slot's presence resolved once before any lane is touched (an absent slot
// reads as the ring Zero on every lane).
func (x *Exec) AccLanes(r SlotRef, vs []ring.Value) {
	if !x.Owns(r.Node) {
		return
	}
	i := int(r.Slot) * x.lanes
	dst := x.arena[r.Node][i : i+x.lanes]
	if x.present(int32(r.Node), r.Slot) {
		for l, v := range vs {
			dst[l] = x.R.Add(dst[l], v)
		}
	} else {
		zero := x.R.Zero()
		for l, v := range vs {
			dst[l] = x.R.Add(zero, v)
		}
	}
	x.markPresent(int32(r.Node), r.Slot)
}

// ClearSlot removes the value at a slot (the compiled Del). Clearing an
// absent slot is a no-op, matching map deletion.
func (x *Exec) ClearSlot(r SlotRef) {
	if x.present(int32(r.Node), r.Slot) {
		x.stamp[r.Node][r.Slot] = x.epoch - 1
		x.live[r.Node]--
	}
}

// Reset clears all arenas and statistics, returning the executor to its
// freshly-constructed state (engine settings kept, collector detached so a
// pooled executor never leaks a previous request's profile). Presence is
// epoch-stamped, so no arena is swept: every slot is absent, whatever its
// stamp or value, and ready for Fit.
func (x *Exec) Reset() {
	x.epoch++
	if x.epoch == 0 { // stamp wrap: hard-clear once every 2^32 resets
		// The whole slab, not only the current views: a slot another
		// layout left stamped would be present again once the epoch
		// climbed back to its stamp.
		clear(x.stamps)
		x.epoch = 1
	}
	for i := range x.live {
		x.live[i] = 0
	}
	x.stats = Stats{RoundBytes: x.stats.RoundBytes[:0]}
	x.collector = nil
	x.injector = nil
	x.setTransport(nil)
	x.netRound = 0
}

// Run executes every round of the compiled plan, replaying its phase spans
// on the collector exactly as the map engine replays Plan spans. Under a
// transport the plan is a chain of one: its rounds share exchanges with each
// other, never with the plan run before or after it.
func (x *Exec) Run(cp *CompiledPlan) error {
	if x.transport != nil {
		return x.RunChained(cp.Chain(), 0)
	}
	return x.run(cp)
}

// RunChained executes plan i of chain c. The plans of a chain run in order,
// i = 0 first, with no local computation between them: under a transport the
// sends of a later plan's rounds may already have left, from the state at
// their exchange's first round, while an earlier plan's rounds are still
// being received (exchange.go). Without a transport it is Run(c.Plans[i]).
func (x *Exec) RunChained(c *Chain, i int) error {
	if x.transport != nil {
		switch {
		case i == 0:
			x.chain, x.exch = c, 0
		case x.chain != c || x.chainPlan != i-1:
			return fmt.Errorf("lbm: plan %d of a chain run out of order", i)
		}
		x.chainPlan = i
	}
	return x.run(c.Plans[i])
}

func (x *Exec) run(cp *CompiledPlan) error {
	if cp.N != x.N {
		return fmt.Errorf("lbm: compiled plan for %d computers on a %d-computer executor", cp.N, x.N)
	}
	if cp.HasSub && x.field == nil {
		return fmt.Errorf("lbm: OpSub requires a field, ring %s is not one", x.R.Name())
	}
	rounds := cp.NumRounds()
	if x.collector == nil || len(cp.Spans) == 0 {
		for t := 0; t < rounds; t++ {
			if err := x.runRound(cp, t); err != nil {
				return fmt.Errorf("round %d: %w", t, err)
			}
		}
		return nil
	}
	return runWithSpans(x.collector, cp.Spans, rounds, func(t int) error {
		return x.runRound(cp, t)
	})
}

// runRound executes one compiled round: gather against the round-start
// state, StoreLimit pre-check, deliver, then stats. Constraint checking
// happened once at compile time.
func (x *Exec) runRound(cp *CompiledPlan, t int) error {
	if x.transport != nil {
		return x.runRoundVia(cp, t)
	}
	lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
	if hi == lo {
		return nil
	}
	if x.injector != nil {
		if err := x.injectRound(cp, lo, hi); err != nil {
			return err
		}
	}
	size := (hi - lo) * x.lanes
	if cap(x.payload) < size {
		x.payload = make([]ring.Value, size)
	}
	payload := x.payload[:size]
	if err := x.gather(cp, lo, hi, payload); err != nil {
		return err
	}
	if x.StoreLimit > 0 {
		if err := x.checkStoreLimit(cp, lo, hi); err != nil {
			return err
		}
	}
	x.deliver(cp, lo, hi, payload)

	// Stats count plan instructions, not lane values, so the lane factor
	// stays out; a round of only local copies costs nothing.
	real := int64(cp.Real[t])
	locals := int64(hi-lo) - real
	x.stats.LocalCopies += locals
	if real > 0 {
		x.stats.Rounds++
		x.stats.Messages += real
		x.stats.RoundBytes = append(x.stats.RoundBytes, real*valueWireBytes)
		if c := x.collector; c != nil {
			for i := lo; i < hi; i++ {
				if cp.From[i] != cp.To[i] {
					c.OnSend(cp.From[i], cp.To[i])
				}
			}
			c.OnRound(int(real), int(locals))
		}
	}
	return nil
}

func (x *Exec) gather(cp *CompiledPlan, lo, hi int, payload []ring.Value) error {
	K := x.lanes
	if K == 1 {
		for i := lo; i < hi; i++ {
			from, slot := cp.From[i], cp.SrcSlot[i]
			if x.stamp[from][slot] != x.epoch {
				return x.missingErr(cp, i)
			}
			payload[i-lo] = x.arena[from][slot]
		}
		return nil
	}
	for i := lo; i < hi; i++ {
		from, slot := cp.From[i], cp.SrcSlot[i]
		if x.stamp[from][slot] != x.epoch {
			return x.missingErr(cp, i)
		}
		copy(payload[(i-lo)*K:(i-lo+1)*K], x.arena[from][int(slot)*K:])
	}
	return nil
}

// missingErr names the missing source by its slot address.
func (x *Exec) missingErr(cp *CompiledPlan, i int) error {
	return fmt.Errorf("lbm: node %d cannot send missing key (slot %d)", cp.From[i], cp.SrcSlot[i])
}

// checkStoreLimit mirrors Machine.checkStoreLimit: distinct new destination
// slots counted per node against the prospective post-delivery store sizes,
// before anything is delivered.
func (x *Exec) checkStoreLimit(cp *CompiledPlan, lo, hi int) error {
	var seen map[SlotRef]struct{}
	add := map[int32]int{}
	for i := lo; i < hi; i++ {
		to, dst := cp.To[i], cp.DstSlot[i]
		if !x.Owns(to) {
			// Non-owned stores live (and are limit-checked) elsewhere.
			continue
		}
		if x.present(to, dst) {
			continue
		}
		ref := SlotRef{Node: NodeID(to), Slot: dst}
		if seen == nil {
			seen = map[SlotRef]struct{}{}
		} else if _, dup := seen[ref]; dup {
			continue
		}
		seen[ref] = struct{}{}
		add[to]++
		if after := int(x.live[to]) + add[to]; after > x.StoreLimit {
			return fmt.Errorf("lbm: node %d exceeds the store limit (%d > %d values)", to, after, x.StoreLimit)
		}
	}
	return nil
}

// applyInstr delivers instruction i's payload lanes into the destination
// slot: one presence resolution, then every lane. The single-lane shape is
// kept branch-lean — it is the PR-3 hot path the batched form amortizes.
func (x *Exec) applyInstr(cp *CompiledPlan, i, lo int, payload []ring.Value) {
	to, dst := cp.To[i], cp.DstSlot[i]
	K := x.lanes
	if K == 1 {
		v := payload[i-lo]
		switch cp.Ops[i] {
		case OpAcc:
			cur := x.R.Zero()
			if x.present(to, dst) {
				cur = x.arena[to][dst]
			}
			x.arena[to][dst] = x.R.Add(cur, v)
		case OpSub:
			cur := x.R.Zero()
			if x.present(to, dst) {
				cur = x.arena[to][dst]
			}
			x.arena[to][dst] = x.field.Sub(cur, v)
		default:
			x.arena[to][dst] = v
		}
		return
	}
	vs := payload[(i-lo)*K : (i-lo+1)*K]
	ds := x.arena[to][int(dst)*K : (int(dst)+1)*K]
	switch cp.Ops[i] {
	case OpAcc:
		if x.present(to, dst) {
			for l, v := range vs {
				ds[l] = x.R.Add(ds[l], v)
			}
		} else {
			zero := x.R.Zero()
			for l, v := range vs {
				ds[l] = x.R.Add(zero, v)
			}
		}
	case OpSub:
		if x.present(to, dst) {
			for l, v := range vs {
				ds[l] = x.field.Sub(ds[l], v)
			}
		} else {
			zero := x.R.Zero()
			for l, v := range vs {
				ds[l] = x.field.Sub(zero, v)
			}
		}
	default:
		copy(ds, vs)
	}
}

func (x *Exec) deliver(cp *CompiledPlan, lo, hi int, payload []ring.Value) {
	for i := lo; i < hi; i++ {
		x.applyInstr(cp, i, lo, payload)
		x.markPresent(cp.To[i], cp.DstSlot[i])
	}
}
