package lbm

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file is the lowering pass of the execution spine: it turns a Plan —
// rounds of Sends addressed by (node, Key) — into a CompiledPlan, a flat
// slot-addressed instruction stream. The supported model's premise (§2)
// makes this sound: every routing and addressing decision is a function of
// the sparsity structure alone, so the per-node occupancy analysis that
// assigns each key a dense arena slot is free preprocessing, and run time
// becomes a pure array program with no hashing and no allocation.

// SlotSpace performs the occupancy analysis: it assigns every (node, Key)
// pair ever touched by a pipeline a dense slot in that node's value arena.
// One SlotSpace is shared across every compiled artifact of a pipeline
// (plans, local product tasks, cleanup sweeps), so a key staged by one plan
// and consumed by a later one resolves to the same slot. A space that
// starts from loaded arenas (Loads) slots the loaded cells by position and
// indexes only the keys the steps stage.
type SlotSpace struct {
	n int
	// tab is the one slot index of every node: an open-addressed table of
	// power-of-two size, probed linearly and doubled before it is half
	// full, so every probe ends at an empty entry. seen lists its keys in
	// the order they were first seen, and sizes counts each node's slots.
	tab   []slotEntry
	seen  []nodeKey
	sizes []int32
	// loads, if not nil, holds the loaded cells; dead is the first reach of
	// a dead one (ErrDeadCell).
	loads *Loads
	dead  error
}

// Loads is what a pipeline loads into the arenas before its first step,
// by support position: the cell at position k of Â, B̂ or X̂ (Slot[0],
// Slot[1], Slot[2]) sits at its owner under Layout in slot Slot[m][k]-1,
// or is dead, on no triangle and loaded nowhere, where Slot[m][k] is 0.
// Each node v holds Prefix[v] loaded slots, [0, Prefix[v]).
type Loads struct {
	Layout *Layout
	Slot   [3][]int32
	Prefix []int32
}

// ErrDeadCell reports a step that reaches an A, B or X cell at its owner
// where the cell lies on no triangle: it has no slot in the loaded prefix,
// so the step would find it absent at run time.
var ErrDeadCell = errors.New("lbm: plan reaches a cell on no triangle")

// slot resolves key k at node to its load slot: ok is false unless k names
// a cell of its matrix's support at the cell's owner. A dead cell's slot is
// -1.
func (ld *Loads) slot(node NodeID, k Key) (slot int32, ok bool) {
	if k.Kind > KX || k.Seq != 0 {
		return 0, false
	}
	p, ok := ld.Layout.owners(k.Kind).owned(node, k.I, k.J)
	if !ok {
		return 0, false
	}
	return ld.Slot[k.Kind][p] - 1, true
}

// slotEntry is one entry of the slot index: a key at its node and its slot
// plus one, so the zero entry is an empty one.
type slotEntry struct {
	nk   nodeKey
	slot int32
}

// nodeKey is key k at one node, its fields widened to leave no padding, so
// that two keys compare as one block of memory.
type nodeKey struct {
	node          NodeID
	kind, i, j, q int32
}

func nodeKeyOf(node NodeID, k Key) nodeKey { return nodeKey{node, int32(k.Kind), k.I, k.J, k.Seq} }

func (nk nodeKey) key() Key { return Key{Kind: Kind(nk.kind), I: nk.i, J: nk.j, Seq: nk.q} }

// slotSeed keys the slot index's hash. It is drawn once per process, so
// supports sent in a request cannot be chosen to put their keys on one
// probe chain.
var slotSeed = [3]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64()}

// hash mixes the key's fields with slotSeed: two 64×64→128-bit multiplies,
// each folded to 64 bits.
func (nk nodeKey) hash() uint64 {
	a := uint64(uint32(nk.node))<<32 | uint64(uint32(nk.kind))
	b := uint64(uint32(nk.i))<<32 | uint64(uint32(nk.j))
	h := mix(a^slotSeed[0], b^slotSeed[1])
	return mix(h^uint64(uint32(nk.q)), slotSeed[2])
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// minSlotTable is the least first size of the slot index, in entries.
const minSlotTable = 64

// NewSlotSpace returns an empty slot space for n computers whose first
// index holds keys keys before it doubles.
func NewSlotSpace(n, keys int) *SlotSpace {
	size := max(minSlotTable, 1<<bits.Len(uint(max(2*keys-1, 1))))
	return &SlotSpace{n: n, tab: make([]slotEntry, size), seen: make([]nodeKey, 0, size/2), sizes: make([]int32, n)}
}

// N returns the number of computers the space was built for.
func (s *SlotSpace) N() int { return s.n }

// find returns the index of nk's entry in tab, or of the empty entry that
// ends its probe chain.
func (s *SlotSpace) find(nk nodeKey) int {
	mask := uint64(len(s.tab) - 1)
	for p := nk.hash() & mask; ; p = (p + 1) & mask {
		if e := &s.tab[p]; e.slot == 0 || e.nk == nk {
			return int(p)
		}
	}
}

// grow doubles the slot index and re-enters every key, and gives seen room
// for as many keys as the new index takes.
func (s *SlotSpace) grow() {
	old := s.tab
	s.tab = make([]slotEntry, 2*len(old))
	for _, e := range old {
		if e.slot != 0 {
			s.tab[s.find(e.nk)] = e
		}
	}
	s.seen = slices.Grow(s.seen, len(s.tab)/2-len(s.seen))
}

// Slot returns the slot of key k at node, assigning the next free slot on
// first sight. A node outside the space has no slot: it gets -1, and the
// model-rule pass of the plan being compiled reports the node out of range.
// A loaded cell at its owner takes its load slot; a dead one gets -1 and
// is recorded as the space's dead reach. The slot of a key already slotted
// is only read, so goroutines may ask for those at once, as they may
// Lookup.
func (s *SlotSpace) Slot(node NodeID, k Key) int32 {
	if node < 0 || int(node) >= s.n {
		return -1
	}
	if s.loads != nil {
		if sl, ok := s.loads.slot(node, k); ok {
			if sl < 0 && s.dead == nil {
				s.dead = fmt.Errorf("%w: %v at node %d", ErrDeadCell, k, node)
			}
			return sl
		}
	}
	nk := nodeKeyOf(node, k)
	p := s.find(nk)
	if sl := s.tab[p].slot; sl != 0 {
		return sl - 1
	}
	if 2*(len(s.seen)+1) > len(s.tab) {
		s.grow()
		p = s.find(nk)
	}
	sl := s.sizes[node]
	s.tab[p] = slotEntry{nk: nk, slot: sl + 1}
	s.seen = append(s.seen, nk)
	s.sizes[node]++
	return sl
}

// Lookup returns the slot of an indexed key k at node without assigning
// one; the loaded cells of a space that started from Loads are not indexed.
func (s *SlotSpace) Lookup(node NodeID, k Key) (int32, bool) {
	sl := s.tab[s.find(nodeKeyOf(node, k))].slot
	if sl == 0 {
		return 0, false
	}
	return sl - 1, true
}

// Ref returns a SlotRef for key k at node, assigning a slot if needed.
func (s *SlotSpace) Ref(node NodeID, k Key) SlotRef {
	return SlotRef{Node: node, Slot: s.Slot(node, k)}
}

// Sizes returns the per-node arena sizes (number of assigned slots).
func (s *SlotSpace) Sizes() []int32 {
	return append([]int32(nil), s.sizes...)
}

// EachKey visits every assigned (node, key, slot) triple of a space that
// started empty in deterministic order (by node, then by slot assignment
// order).
func (s *SlotSpace) EachKey(f func(node NodeID, k Key, slot int32)) {
	// Bucket the keys by node; within a node, order of sight is slot order.
	next := make([]int, s.n+1)
	for v, sz := range s.sizes {
		next[v+1] = next[v] + int(sz)
	}
	keys := make([]Key, len(s.seen))
	for _, nk := range s.seen {
		keys[next[nk.node]] = nk.key()
		next[nk.node]++
	}
	start := 0
	for v, end := range next[:s.n] {
		for slot, k := range keys[start:end] {
			f(NodeID(v), k, int32(slot))
		}
		start = end
	}
}

// SlotRef addresses one arena slot of one computer — the compiled
// equivalent of a (node, Key) pair.
type SlotRef struct {
	Node NodeID
	Slot int32
}

// RefVisitor is handed every slot a compiled program touches: each of its
// plans whole, and each slot ref of its local work (products, leaf tables,
// cleanup sweeps) one at a time. A compiled pipeline derives its arena sizes
// from what a visitor sees (internal/algo), so a program has no arena
// geometry of its own to carry or to check.
type RefVisitor interface {
	Plan(cp *CompiledPlan)
	Ref(r SlotRef)
}

// CompiledPlan is a Plan lowered to a flat slot-addressed instruction
// stream in structure-of-arrays form: instruction i moves the value in slot
// SrcSlot[i] of node From[i] into slot DstSlot[i] of node To[i] under
// Ops[i]. RoundOff is the round index: round t is the instruction range
// [RoundOff[t], RoundOff[t+1]). The model constraints (node IDs in range,
// one send and one receive per computer per round) are checked once, by
// validate, instead of on every execution.
type CompiledPlan struct {
	// N is the machine size the plan was compiled for.
	N int

	From, To         []int32
	SrcSlot, DstSlot []int32
	Ops              []Op
	// RoundOff has len(rounds)+1 entries.
	RoundOff []int32

	// Real and HasSub are derived from the fields above by validate and
	// never serialized. Real[t] is the number of real (cross-node) messages
	// of round t, so the executor's stats replay does no per-round counting
	// work; HasSub records whether any instruction uses OpSub, so the
	// executor can reject a non-field ring once per run instead of per
	// instruction.
	Real   []int32
	HasSub bool
}

// NumRounds returns the number of rounds in the compiled plan.
func (cp *CompiledPlan) NumRounds() int { return len(cp.RoundOff) - 1 }

// AddNodeLoads accumulates the plan's per-node real-message loads into
// send and recv (indexed by NodeID, length ≥ N). Loads are a compile-time
// property of the structure: the same counts an execution would charge to
// Stats.SendLoad/RecvLoad, available without running the plan. Partition
// balancers (internal/dist) consume them.
func (cp *CompiledPlan) AddNodeLoads(send, recv []int64) {
	for i, from := range cp.From {
		if to := cp.To[i]; from != to {
			send[from]++
			recv[to]++
		}
	}
}

// MemoryBytes estimates the resident size of the compiled form: the
// instruction arrays plus the round index. Serving caches use it as the
// LRU cost of a cached plan.
func (cp *CompiledPlan) MemoryBytes() int64 {
	n := int64(len(cp.From)) * (4 + 4 + 4 + 4 + 1) // SoA instruction arrays
	n += int64(len(cp.RoundOff)+len(cp.Real)) * 4
	return n
}

// CompileInto lowers a plan against a caller-owned slot space, assigning
// slots for every key the plan touches. Pipelines that interleave several
// plans with local computation over shared keys compile them all into one
// space so every artifact agrees on the addressing.
func CompileInto(space *SlotSpace, p *Plan) (*CompiledPlan, error) {
	n := space.N()
	total := 0
	for _, r := range p.Rounds {
		total += len(r)
	}
	cp := &CompiledPlan{
		N:        n,
		From:     make([]int32, 0, total),
		To:       make([]int32, 0, total),
		SrcSlot:  make([]int32, 0, total),
		DstSlot:  make([]int32, 0, total),
		Ops:      make([]Op, 0, total),
		RoundOff: make([]int32, 1, len(p.Rounds)+1),
	}
	for _, r := range p.Rounds {
		for _, s := range r {
			cp.From = append(cp.From, s.From)
			cp.To = append(cp.To, s.To)
			cp.SrcSlot = append(cp.SrcSlot, space.Slot(s.From, s.Src))
			cp.DstSlot = append(cp.DstSlot, space.Slot(s.To, s.Dst))
			cp.Ops = append(cp.Ops, s.Op)
		}
		cp.RoundOff = append(cp.RoundOff, int32(len(cp.From)))
	}
	if err := cp.validate(newRules(n)); err != nil {
		return nil, err
	}
	return cp, nil
}

// rules is the scratch of the model-rule pass: per node, the last round it
// sent in and the last round it received in. Rounds are numbered on across
// every plan one rules checks, so a reader allocates it once per envelope
// rather than once per plan.
type rules struct {
	sent, recv []int32
	round      int32
}

func newRules(n int) *rules {
	return &rules{sent: make([]int32, n), recv: make([]int32, n)}
}

// validate is the one pass over a compiled plan's instruction stream. It
// checks the model rules — consistent array lengths, a round index that
// covers the stream in order, node IDs in range, non-negative slots, known
// ops, one send and one receive per node per round — and derives what
// follows from the stream: Real and HasSub. CompileInto runs it on what it
// lowered and WireReader.Plan on what it read, so a fresh plan and a
// decoded one are checked and derived alike. rs must be sized for cp.N
// nodes.
func (cp *CompiledPlan) validate(rs *rules) error {
	if cp.N < 1 {
		return fmt.Errorf("lbm: compiled plan: machine size %d", cp.N)
	}
	ni := len(cp.From)
	if len(cp.To) != ni || len(cp.SrcSlot) != ni || len(cp.DstSlot) != ni || len(cp.Ops) != ni {
		return fmt.Errorf("lbm: compiled plan: ragged instruction arrays")
	}
	if len(cp.RoundOff) < 1 || cp.RoundOff[0] != 0 || int(cp.RoundOff[len(cp.RoundOff)-1]) != ni {
		return fmt.Errorf("lbm: compiled plan: round index does not cover the instruction stream")
	}
	rounds := len(cp.RoundOff) - 1
	cp.Real, cp.HasSub = make([]int32, rounds), false
	for t := 0; t < rounds; t++ {
		lo, hi := cp.RoundOff[t], cp.RoundOff[t+1]
		if lo > hi {
			return fmt.Errorf("lbm: compiled plan: round index not monotone at round %d", t)
		}
		// The first and last offsets are pinned above, but a middle one
		// may still point outside the stream.
		if lo < 0 || int(hi) > ni {
			return fmt.Errorf("lbm: compiled plan: round %d covers instructions [%d,%d) of %d", t, lo, hi, ni)
		}
		rs.round++
		var real int32
		for i := lo; i < hi; i++ {
			from, to := cp.From[i], cp.To[i]
			if from < 0 || int(from) >= cp.N || to < 0 || int(to) >= cp.N {
				return fmt.Errorf("lbm: compiled plan: round %d: send %d -> %d out of range (n=%d)", t, from, to, cp.N)
			}
			if cp.SrcSlot[i] < 0 || cp.DstSlot[i] < 0 {
				return fmt.Errorf("lbm: compiled plan: round %d: negative slot", t)
			}
			if cp.Ops[i] > OpSub {
				return fmt.Errorf("lbm: compiled plan: round %d: unknown op %d", t, cp.Ops[i])
			}
			if cp.Ops[i] == OpSub {
				cp.HasSub = true
			}
			if from == to {
				continue
			}
			if rs.sent[from] == rs.round {
				return fmt.Errorf("lbm: compiled plan: node %d sends twice in round %d", from, t)
			}
			if rs.recv[to] == rs.round {
				return fmt.Errorf("lbm: compiled plan: node %d receives twice in round %d", to, t)
			}
			rs.sent[from], rs.recv[to] = rs.round, rs.round
			real++
		}
		cp.Real[t] = real
	}
	return nil
}
