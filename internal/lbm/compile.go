package lbm

import (
	"fmt"
	"sync/atomic"
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
// and consumed by a later one resolves to the same slot.
type SlotSpace struct {
	n    int
	idx  []map[Key]int32
	keys [][]Key
}

// NewSlotSpace returns an empty slot space for n computers.
func NewSlotSpace(n int) *SlotSpace {
	s := &SlotSpace{n: n, idx: make([]map[Key]int32, n), keys: make([][]Key, n)}
	for i := range s.idx {
		s.idx[i] = map[Key]int32{}
	}
	return s
}

// N returns the number of computers the space was built for.
func (s *SlotSpace) N() int { return s.n }

// Slot returns the slot of key k at node, assigning the next free slot on
// first sight.
func (s *SlotSpace) Slot(node NodeID, k Key) int32 {
	if sl, ok := s.idx[node][k]; ok {
		return sl
	}
	sl := int32(len(s.keys[node]))
	s.idx[node][k] = sl
	s.keys[node] = append(s.keys[node], k)
	return sl
}

// Lookup returns the slot of key k at node without assigning one.
func (s *SlotSpace) Lookup(node NodeID, k Key) (int32, bool) {
	sl, ok := s.idx[node][k]
	return sl, ok
}

// Ref returns a SlotRef for key k at node, assigning a slot if needed.
func (s *SlotSpace) Ref(node NodeID, k Key) SlotRef {
	return SlotRef{Node: node, Slot: s.Slot(node, k)}
}

// Sizes returns the per-node arena sizes (number of assigned slots).
func (s *SlotSpace) Sizes() []int32 {
	out := make([]int32, s.n)
	for i := range out {
		out[i] = int32(len(s.keys[i]))
	}
	return out
}

// EachKey visits every assigned (node, key, slot) triple in deterministic
// order (by node, then by slot assignment order).
func (s *SlotSpace) EachKey(f func(node NodeID, k Key, slot int32)) {
	for node := range s.keys {
		for slot, k := range s.keys[node] {
			f(NodeID(node), k, int32(slot))
		}
	}
}

// SlotRef addresses one arena slot of one computer — the compiled
// equivalent of a (node, Key) pair.
type SlotRef struct {
	Node NodeID
	Slot int32
}

// CheckRefs bounds-checks slot refs against the per-node arena sizes they
// will be used in. Decoded programs run it over every ref their local work
// touches (the ValidateRefs methods of dense, cluster, fewtri and algo).
func CheckRefs(sizes []int32, refs ...SlotRef) error {
	for _, r := range refs {
		if r.Node < 0 || int(r.Node) >= len(sizes) {
			return fmt.Errorf("node %d out of range (n=%d)", r.Node, len(sizes))
		}
		if r.Slot < 0 || r.Slot >= sizes[r.Node] {
			return fmt.Errorf("slot %d out of range at node %d (%d slots)", r.Slot, r.Node, sizes[r.Node])
		}
	}
	return nil
}

// CompiledPlan is a Plan lowered to a flat slot-addressed instruction
// stream in structure-of-arrays form: instruction i moves the value in slot
// SrcSlot[i] of node From[i] into slot DstSlot[i] of node To[i] under
// Ops[i]. RoundOff is the round index: round t is the instruction range
// [RoundOff[t], RoundOff[t+1]). The model constraints (node IDs in range,
// one send and one receive per computer per round) are validated once at
// compile time instead of on every execution.
type CompiledPlan struct {
	// N is the machine size the plan was compiled for.
	N int
	// NumSlots are the per-node arena sizes observed at compile time. An
	// executor's arenas must be at least this large; a shared SlotSpace may
	// have grown past it by the time the pipeline's last plan is compiled.
	NumSlots []int32

	From, To         []int32
	SrcSlot, DstSlot []int32
	Ops              []Op
	// RoundOff has len(rounds)+1 entries; Real[t] is the number of real
	// (cross-node) messages of round t, precomputed so the executor's
	// stats replay does no per-round counting work.
	RoundOff []int32
	Real     []int32
	// Spans are the source plan's phase annotations, replayed identically
	// to the map engine when a collector is attached.
	Spans []PhaseSpan
	// HasSub records whether any instruction uses OpSub, so the executor
	// can reject a non-field ring once per run instead of per instruction.
	HasSub bool

	// solo caches the plan as a chain of one (exchange.go): derived state,
	// built on first use under a transport and never serialized.
	solo atomic.Pointer[Chain]
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

// FitsArenas checks that the plan's arena demands fit within the executor
// arenas it will run in. Validate bounds every instruction by the plan's
// own NumSlots snapshot, so NumSlots ≤ sizes is sufficient.
func (cp *CompiledPlan) FitsArenas(sizes []int32) error {
	if cp.N != len(sizes) {
		return fmt.Errorf("plan compiled for %d nodes, arenas have %d", cp.N, len(sizes))
	}
	for v, sz := range cp.NumSlots {
		if sz > sizes[v] {
			return fmt.Errorf("plan needs %d slots at node %d, arenas have %d", sz, v, sizes[v])
		}
	}
	return nil
}

// MemoryBytes estimates the resident size of the compiled form: the
// instruction arrays plus the round index. Serving caches use it as the
// LRU cost of a cached plan.
func (cp *CompiledPlan) MemoryBytes() int64 {
	n := int64(len(cp.From)) * (4 + 4 + 4 + 4 + 1) // SoA instruction arrays
	n += int64(len(cp.RoundOff)+len(cp.Real)) * 4
	n += int64(len(cp.NumSlots)) * 4
	for _, s := range cp.Spans {
		n += int64(len(s.Label)) + 16 + int64(len(s.Metrics))*24
	}
	return n
}

// CompileInto lowers a plan against a caller-owned slot space, assigning
// slots for every key the plan touches. Pipelines that interleave several
// plans with local computation over shared keys compile them all into one
// space so every artifact agrees on the addressing.
func CompileInto(space *SlotSpace, p *Plan) (*CompiledPlan, error) {
	n := space.N()
	if n < 1 {
		return nil, fmt.Errorf("lbm: compile: machine size %d", n)
	}
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
		Real:     make([]int32, 0, len(p.Rounds)),
	}
	sentAt := make([]int, n)
	recvAt := make([]int, n)
	for i := range sentAt {
		sentAt[i] = -1
		recvAt[i] = -1
	}
	for t, r := range p.Rounds {
		var real int32
		for _, s := range r {
			if s.From < 0 || int(s.From) >= n || s.To < 0 || int(s.To) >= n {
				return nil, fmt.Errorf("lbm: compile: round %d: send %v -> %v out of range (n=%d)", t, s.From, s.To, n)
			}
			if s.Op > OpSub {
				return nil, fmt.Errorf("lbm: compile: round %d: unknown op %d", t, s.Op)
			}
			if s.Op == OpSub {
				cp.HasSub = true
			}
			if s.From != s.To {
				if sentAt[s.From] == t {
					return nil, fmt.Errorf("lbm: compile: node %d sends twice in round %d (key %v)", s.From, t, s.Src)
				}
				if recvAt[s.To] == t {
					return nil, fmt.Errorf("lbm: compile: node %d receives twice in round %d (key %v)", s.To, t, s.Dst)
				}
				sentAt[s.From] = t
				recvAt[s.To] = t
				real++
			}
			cp.From = append(cp.From, int32(s.From))
			cp.To = append(cp.To, int32(s.To))
			cp.SrcSlot = append(cp.SrcSlot, space.Slot(s.From, s.Src))
			cp.DstSlot = append(cp.DstSlot, space.Slot(s.To, s.Dst))
			cp.Ops = append(cp.Ops, s.Op)
		}
		cp.RoundOff = append(cp.RoundOff, int32(len(cp.From)))
		cp.Real = append(cp.Real, real)
	}
	for _, s := range p.Spans {
		if s.Start < 0 || s.End < s.Start || s.End > len(p.Rounds) {
			return nil, fmt.Errorf("lbm: compile: span %q covers rounds [%d,%d) of a %d-round plan",
				s.Label, s.Start, s.End, len(p.Rounds))
		}
	}
	cp.Spans = append(cp.Spans, p.Spans...)
	cp.NumSlots = space.Sizes()
	return cp, nil
}

// Validate statically checks a compiled plan's invariants: consistent array
// lengths, a monotone round index, node IDs in range, slots within the
// declared arena sizes, one send and one receive per node per round, and
// well-formed spans. Decoded compiled plans cross a trust boundary (plan-store
// files, mesh job frames), so WireReader.Plan never returns one unchecked.
func (cp *CompiledPlan) Validate() error {
	if cp.N < 1 {
		return fmt.Errorf("lbm: compiled plan: machine size %d", cp.N)
	}
	if len(cp.NumSlots) != cp.N {
		return fmt.Errorf("lbm: compiled plan: %d arena sizes for %d nodes", len(cp.NumSlots), cp.N)
	}
	ni := len(cp.From)
	if len(cp.To) != ni || len(cp.SrcSlot) != ni || len(cp.DstSlot) != ni || len(cp.Ops) != ni {
		return fmt.Errorf("lbm: compiled plan: ragged instruction arrays")
	}
	if len(cp.RoundOff) < 1 || cp.RoundOff[0] != 0 || int(cp.RoundOff[len(cp.RoundOff)-1]) != ni {
		return fmt.Errorf("lbm: compiled plan: round index does not cover the instruction stream")
	}
	if len(cp.Real) != len(cp.RoundOff)-1 {
		return fmt.Errorf("lbm: compiled plan: %d per-round counts for %d rounds", len(cp.Real), len(cp.RoundOff)-1)
	}
	sentAt := make([]int, cp.N)
	recvAt := make([]int, cp.N)
	for i := range sentAt {
		sentAt[i] = -1
		recvAt[i] = -1
	}
	hasSub := false
	for t := 0; t < len(cp.RoundOff)-1; t++ {
		lo, hi := cp.RoundOff[t], cp.RoundOff[t+1]
		if lo > hi {
			return fmt.Errorf("lbm: compiled plan: round index not monotone at round %d", t)
		}
		// The first and last offsets are pinned above, but a middle one
		// may still point outside the stream.
		if lo < 0 || int(hi) > ni {
			return fmt.Errorf("lbm: compiled plan: round %d covers instructions [%d,%d) of %d", t, lo, hi, ni)
		}
		var real int32
		for i := lo; i < hi; i++ {
			from, to := cp.From[i], cp.To[i]
			if from < 0 || int(from) >= cp.N || to < 0 || int(to) >= cp.N {
				return fmt.Errorf("lbm: compiled plan: round %d: send %d -> %d out of range (n=%d)", t, from, to, cp.N)
			}
			if cp.SrcSlot[i] < 0 || cp.SrcSlot[i] >= cp.NumSlots[from] ||
				cp.DstSlot[i] < 0 || cp.DstSlot[i] >= cp.NumSlots[to] {
				return fmt.Errorf("lbm: compiled plan: round %d: slot out of range", t)
			}
			if cp.Ops[i] > OpSub {
				return fmt.Errorf("lbm: compiled plan: round %d: unknown op %d", t, cp.Ops[i])
			}
			if cp.Ops[i] == OpSub {
				hasSub = true
			}
			if from == to {
				continue
			}
			if sentAt[from] == t {
				return fmt.Errorf("lbm: compiled plan: node %d sends twice in round %d", from, t)
			}
			if recvAt[to] == t {
				return fmt.Errorf("lbm: compiled plan: node %d receives twice in round %d", to, t)
			}
			sentAt[from] = t
			recvAt[to] = t
			real++
		}
		if real != cp.Real[t] {
			return fmt.Errorf("lbm: compiled plan: round %d declares %d real messages, has %d", t, cp.Real[t], real)
		}
	}
	if hasSub != cp.HasSub {
		return fmt.Errorf("lbm: compiled plan: HasSub=%v disagrees with the instruction stream", cp.HasSub)
	}
	rounds := len(cp.RoundOff) - 1
	for _, s := range cp.Spans {
		if s.Start < 0 || s.End < s.Start || s.End > rounds {
			return fmt.Errorf("lbm: compiled plan: span %q covers rounds [%d,%d) of a %d-round plan",
				s.Label, s.Start, s.End, rounds)
		}
	}
	return nil
}
