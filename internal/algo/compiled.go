package algo

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// loadRef binds one live matrix position to its arena slot; k is the
// position's index in the support's column slab (sup.Col), row-major: the
// index of its value in a flat lane (MultiplyValues). Its row i, column
// sup.Col[k] and place in the row k-sup.Off[i] follow from k and the
// support's row offsets, which a walk over refs in order tracks with one
// row cursor (rowOf).
type loadRef struct {
	k   int32
	ref lbm.SlotRef
}

// rowOf advances the row cursor i over the offsets off until row i holds
// the k-th entry: refs are in row-major order, so each walk moves the
// cursor forward only.
func rowOf(off []int32, i, k int32) int32 {
	for k >= off[i+1] {
		i++
	}
	return i
}

// ErrLoadSlots reports a compiled form whose A, B and X load refs do not
// number each node's slots 0, 1, 2, … in load order. The loader marks the
// prefix [0, loaded[v]) present without writing presence per slot, so a gap
// would expose whatever a pooled executor's previous run — of this plan or,
// the pools being the machine's, of any other — left in the slot.
var ErrLoadSlots = errors.New("algo: load slots are not a prefix")

// ErrDeadCell reports a plan that reaches an A, B or X cell lying on no
// triangle. Such a cell has no slot in the loaded prefix, so the plan would
// find it absent at run time.
var ErrDeadCell = errors.New("algo: plan reaches a cell on no triangle")

// compiledPrepared is the compiled twin of a Prepared: the whole pipeline
// — input loading, then one lbm.Program of the phase-1 batches, the staging
// sweep and the Lemma 3.1 job, then output collection — lowered against one
// shared SlotSpace, so MultiplyBatch is a pure array program. It owns no
// executor: a run takes one from the pool of its machine (execFor), shared
// by every plan over the same n and lane count, and lays it out for its
// arena sizes. In steady
// state a multiplication allocates no store memory at all, the first one
// of a freshly decoded plan included.
//
// Only live cells take a slot: the A, B and X cells that lie on at least
// one triangle (graph.Instance.Live). A dead cell never sends, never
// receives and never changes the product, so it is neither loaded, zeroed
// nor collected. The live cells are the first keys the SlotSpace sees, and
// it numbers slots on first sight, so on every node v the loaded slots are
// exactly the prefix [0, loaded[v]). Loading is therefore a value copy:
// Exec.BeginLoad marks the prefixes present and the loader writes values
// into the arenas. The map oracle still stores the dead cells, so BeginLoad
// also counts dead[v] against each node's store: PeakStore, StoreLimit and
// StoreLen stay the map engine's.
type compiledPrepared struct {
	sizes        []int32
	loadA, loadB []loadRef
	// x holds the live output slots in Xhat row order: zero-initialized
	// before the run, collected after it.
	x []loadRef
	// loaded[v] is the number of slots node v holds once A, B and X are in;
	// dead[v] is the number of dead A, B and X cells node v owns.
	loaded, dead []int32
	// prog runs the plans in execution order; its split is where the job
	// starts, so its rounds before it are phase 1's.
	prog  *lbm.Program
	bytes int64
	r     ring.Semiring
}

// execPools holds one executor pool per machine: key execShape, value
// *sync.Pool of *lbm.Exec. Arenas are sized slots×lanes and an executor
// serves any plan over its n and lane count once Fit has laid it out.
var execPools sync.Map

type execShape struct{ n, lanes int }

// execFor returns an executor of the plan's machine carrying the given lane
// count, laid out for the plan, plus the pool to return it to after Reset.
// Reuse across plans is safe because of the load-prefix rule (ErrLoadSlots):
// the loader writes every slot a run reads before the run reads it, so what
// another plan's run left in a slot is never read, as for this plan's own.
func (cp *compiledPrepared) execFor(lanes int) (*lbm.Exec, *sync.Pool) {
	shape := execShape{n: len(cp.sizes), lanes: lanes}
	pi, ok := execPools.Load(shape)
	if !ok {
		pi, _ = execPools.LoadOrStore(shape, new(sync.Pool))
	}
	pool := pi.(*sync.Pool)
	if x, ok := pool.Get().(*lbm.Exec); ok {
		x.Fit(cp.sizes, cp.r)
		return x, pool
	}
	return lbm.NewExecBatch(cp.sizes, lanes, cp.r), pool
}

// compilePrepared lowers a Prepared into its compiled twin. The lowering
// order mirrors execution order, so the occupancy analysis sees keys in the
// same sequence the map engine would create them. It fails with ErrDeadCell
// when a plan reaches a cell that lies on no triangle.
func compilePrepared(p *Prepared) (*compiledPrepared, error) {
	inst, l := p.Inst, p.Layout
	sp := lbm.NewSlotSpace(inst.N)
	cp := &compiledPrepared{dead: make([]int32, inst.N)}
	liveA, liveB, liveX := inst.Live()
	cp.loadA = cp.slotLive(sp, inst.Ahat, liveA, l.OwnerA, lbm.AKey)
	cp.loadB = cp.slotLive(sp, inst.Bhat, liveB, l.OwnerB, lbm.BKey)
	cp.x = cp.slotLive(sp, inst.Xhat, liveX, l.OwnerX, lbm.XKey)
	loaded := sp.Sizes()
	cp.prog = lbm.NewProgram(inst.N)
	p.beginPhase1(cp.prog)
	for _, pb := range p.phase1 {
		if err := pb.Emit(cp.prog, sp); err != nil {
			return nil, err
		}
	}
	// The staging sweep: every vnet staging key the phase-1 plans can have
	// created is known now (fewtri routes with plain keys only), so clear
	// their slots — clearing an absent slot is a no-op, exactly like
	// vnet.CleanupStaging deleting only present keys.
	sp.EachKey(func(node lbm.NodeID, k lbm.Key, slot int32) {
		if k.Kind == lbm.KStage {
			cp.prog.Clear(lbm.SlotRef{Node: node, Slot: slot})
		}
	})
	p.beginPhase2(cp.prog)
	cp.prog.MarkSplit()
	if err := fewtri.Emit(cp.prog, sp, p.fewtri); err != nil {
		return nil, err
	}
	p.endPhase2(cp.prog)
	if err := cp.prog.Finish(); err != nil {
		return nil, err
	}
	// The guard: every A, B or X key the plans touch at its owner must be a
	// loaded slot, or a plan reads a dead cell. Copies at other nodes are
	// the plans' own scratch.
	var reach error
	sp.EachKey(func(node lbm.NodeID, k lbm.Key, slot int32) {
		var owners map[[2]int32]lbm.NodeID
		switch k.Kind {
		case lbm.KA:
			owners = l.A
		case lbm.KB:
			owners = l.B
		case lbm.KX:
			owners = l.X
		default:
			return
		}
		if o, ok := owners[[2]int32{k.I, k.J}]; ok && o == node && slot >= loaded[node] && reach == nil {
			reach = fmt.Errorf("%w: %v at node %d", ErrDeadCell, k, node)
		}
	})
	if reach != nil {
		return nil, reach
	}
	if err := cp.finish(inst.N, p.R); err != nil {
		return nil, err
	}
	return cp, nil
}

// slotLive walks sup in row-major order: each live cell takes the next
// slot of its owner and comes back as a load ref, each dead cell is counted
// against its owner in cp.dead.
func (cp *compiledPrepared) slotLive(sp *lbm.SlotSpace, sup *matrix.Support, live []bool,
	owner func(i, j int32) lbm.NodeID, key func(i, j int32) lbm.Key) []loadRef {
	var refs []loadRef
	i := int32(0)
	for k, j := range sup.Col {
		i = rowOf(sup.Off, i, int32(k))
		o := owner(i, j)
		if live[k] {
			refs = append(refs, loadRef{k: int32(k), ref: sp.Ref(o, key(i, j))})
		} else {
			cp.dead[o]++
		}
	}
	return refs
}

// finish completes a compiled form whose instruction state is in place —
// whether freshly lowered or decoded from a serialized snapshot; its program
// is finished (lbm.Program.Finish). It derives the arena sizes of an n-node
// machine and the loaded prefixes, checks that every slot the program reads
// is defined first (lbm.Program.CheckDefs), prices the resident size and
// records the ring its executors run over. It fails when a ref is out of
// range or the arenas are not gap-free (arenaWalk), when the program needs a
// field and the ring is not one, with ErrLoadSlots when the load refs, taken
// in order, do not number each node's slots from 0 without a gap, and with
// lbm.ErrUseBeforeDef when a step reads a slot nothing defined.
func (cp *compiledPrepared) finish(n int, r ring.Semiring) error {
	w := &arenaWalk{size: make([]int64, n)}
	cp.visitRefs(w)
	if w.err != nil {
		return w.err
	}
	if _, field := ring.AsField(r); cp.prog.NeedsField() && !field {
		return fmt.Errorf("the program subtracts or multiplies leaf blocks, and ring %s has no subtraction", r.Name())
	}
	cp.loaded = make([]int32, n)
	for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
		for _, lr := range refs {
			v := lr.ref.Node
			if lr.ref.Slot != cp.loaded[v] {
				return fmt.Errorf("%w: node %d loads slot %d where slot %d is next", ErrLoadSlots, v, lr.ref.Slot, cp.loaded[v])
			}
			cp.loaded[v]++
		}
	}
	var err error
	if cp.sizes, err = w.arenas(cp.visitRefs); err != nil {
		return err
	}
	// The def-before-use walk reuses the second visit's marks, all set now:
	// the loaded prefixes are defined before the first step, nothing else.
	clear(w.seen)
	for v, l := range cp.loaded {
		prefix := w.seen[w.off[v]:][:l]
		for s := range prefix {
			prefix[s] = true
		}
	}
	if err := cp.prog.CheckDefs(w.seen, w.off); err != nil {
		return err
	}
	cp.bytes = int64(len(cp.loadA)+len(cp.loadB)+len(cp.x)) * 12
	cp.bytes += int64(len(cp.dead)) * 4
	cp.bytes += cp.prog.MemoryBytes()
	cp.r = r
	return nil
}

// visitRefs hands v every slot the compiled form touches, in execution
// order: the loads, then the program.
func (cp *compiledPrepared) visitRefs(v lbm.RefVisitor) {
	for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
		for _, lr := range refs {
			v.Ref(lr.ref)
		}
	}
	cp.prog.VisitRefs(v)
}

// arenaWalk derives the arena sizes of a compiled form from the refs it
// holds: per node, one past the highest slot any ref touches. It visits the
// refs twice. The first visit bounds every ref and takes the extents; the
// second, once the arenas are known to be no larger than the refs that
// touch them, marks each touched slot, and every slot of every arena must
// be marked. The compiler numbers slots on first sight, so a fresh form is
// always gap-free; a decoded one that is not claims arena that nothing
// uses, and is refused before any executor sizes an arena by it.
type arenaWalk struct {
	size []int64 // per node, one past the highest slot touched
	refs int64   // refs visited
	err  error
	// Second visit: node v's slots are seen[off[v]:off[v+1]].
	off  []int64
	seen []bool
}

// Plan takes a validated plan's instructions: their nodes are in range and
// their slots non-negative already.
func (w *arenaWalk) Plan(cp *lbm.CompiledPlan) {
	if w.seen != nil {
		for i, from := range cp.From {
			w.seen[w.off[from]+int64(cp.SrcSlot[i])] = true
			w.seen[w.off[cp.To[i]]+int64(cp.DstSlot[i])] = true
		}
		return
	}
	for i, from := range cp.From {
		w.size[from] = max(w.size[from], int64(cp.SrcSlot[i])+1)
		to := cp.To[i]
		w.size[to] = max(w.size[to], int64(cp.DstSlot[i])+1)
	}
	w.refs += 2 * int64(len(cp.From))
}

func (w *arenaWalk) Ref(r lbm.SlotRef) {
	if w.seen != nil {
		w.seen[w.off[r.Node]+int64(r.Slot)] = true
		return
	}
	if r.Node < 0 || int(r.Node) >= len(w.size) || r.Slot < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("slot ref %d@%d out of range (n=%d)", r.Slot, r.Node, len(w.size))
		}
		return
	}
	w.size[r.Node] = max(w.size[r.Node], int64(r.Slot)+1)
	w.refs++
}

// arenas runs the second visit and returns the arena sizes, or an error
// unless they are gap-free.
func (w *arenaWalk) arenas(visit func(lbm.RefVisitor)) ([]int32, error) {
	w.off = make([]int64, len(w.size)+1)
	for v, sz := range w.size {
		w.off[v+1] = w.off[v] + sz
	}
	if total := w.off[len(w.size)]; total > w.refs {
		return nil, fmt.Errorf("arenas of %d slots for %d refs are not gap-free", total, w.refs)
	}
	w.seen = make([]bool, w.off[len(w.size)])
	visit(w)
	sizes := make([]int32, len(w.size))
	for v, sz := range w.size {
		if i := slices.Index(w.seen[w.off[v]:w.off[v+1]], false); i >= 0 {
			return nil, fmt.Errorf("slot %d of node %d's %d-slot arena is touched by nothing", i, v, sz)
		}
		sizes[v] = int32(sz)
	}
	return sizes, nil
}

// CompiledBytes reports the estimated resident size of the compiled form
// (instruction streams and slot tables; the executors a run takes belong to
// the machine's pool, not to the plan). Serving caches use it as the memory
// cost of a cached Prepared.
func (p *Prepared) CompiledBytes() int64 {
	if p.compiled == nil {
		return 0
	}
	return p.compiled.bytes
}

// NodeLoads returns the per-node real-message loads of the prepared
// multiplication's compiled pipeline: send[v] and recv[v] are exactly the
// Stats.SendLoad[v]/RecvLoad[v] the map engine charges on any execution of
// this structure — rounds are a function of the structure only, so the
// loads are a compile-time property and need no execution. A compiled run
// leaves its Stats' loads nil; these are its loads. The load-aware
// partition balancer (internal/dist) consumes them. Returns nils when no
// compiled form exists (map-only algorithms).
func (p *Prepared) NodeLoads() (send, recv []int64) {
	cp := p.compiled
	if cp == nil {
		return nil, nil
	}
	send = make([]int64, p.Inst.N)
	recv = make([]int64, p.Inst.N)
	cp.prog.AddNodeLoads(send, recv)
	return send, recv
}

// Exchanges returns the rounds-versus-exchanges table of the compiled
// pipeline: per phase, the network rounds the model charges and the
// exchanges a transport blocks on once the hazard pass (lbm/exchange.go) has
// fused the rounds that do not depend on each other. Like NodeLoads it is a
// property of the structure and needs no execution. Nil when no compiled
// form exists.
func (p *Prepared) Exchanges() *lbm.ExchangeReport {
	cp := p.compiled
	if cp == nil {
		return nil
	}
	rep := &lbm.ExchangeReport{}
	cp.prog.AddExchanges(rep)
	return rep
}
