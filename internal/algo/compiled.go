package algo

import (
	"fmt"
	"slices"
	"sync"

	"lbmm/internal/graph"
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

// compiledPrepared is the compiled twin of a Prepared: the whole pipeline
// — input loading, then one lbm.Program of the plan's steps (emit), then
// output collection — lowered by one lbm.Lowering, so MultiplyBatch is a
// pure array program. It owns no executor: a run takes one from the pool of
// its machine (execFor), shared by every plan over the same n and lane
// count, and lays it out for its arena sizes. In steady state a
// multiplication allocates no store memory at all, the first one of a
// freshly decoded plan included.
//
// Only live cells take a slot: the A, B and X cells that lie on at least
// one triangle (graph.Instance.Live). A dead cell never sends, never
// receives and never changes the product, so it is neither loaded, zeroed
// nor collected. numberLoads numbers the live cells' slots from the
// supports and the layout alone, on every node v the prefix
// [0, loaded[v]); compilation hands them to the lowering before any step,
// and a decoded form derives the same numbering, so an envelope carries
// none of it. Loading is therefore a value copy: Exec.BeginLoad marks the
// prefixes present and the loader writes values into the arenas. The map
// oracle still stores the dead cells, so BeginLoad also counts dead[v]
// against each node's store: PeakStore, StoreLimit and StoreLen stay the
// map engine's.
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
// Reuse across plans is safe because the load slots are derived, a prefix
// of each node's arena by construction (numberLoads), and every other slot
// is defined by a step before a step reads it (lbm.Program.CheckDefs): the
// loader writes every slot a run reads before the run reads it, so what
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

// compilePrepared lowers a Prepared into its compiled twin: the loads, then
// the plan's one step order (emit) written to a lowering. The lowering
// takes each loaded cell's slot by its support position, from the table
// numberLoads fills, and indexes only the keys the plan stages. It fails
// with lbm.ErrDeadCell when a plan reaches a cell that lies on no triangle.
func compilePrepared(p *Prepared) (*compiledPrepared, error) {
	inst := p.Inst
	cp := &compiledPrepared{}
	nA, nB := inst.Ahat.NNZ, inst.Ahat.NNZ+inst.Bhat.NNZ
	slab := make([]int32, nB+inst.Xhat.NNZ)
	slots := [3][]int32{slab[:nA:nA], slab[nA:nB:nB], slab[nB:]}
	cp.numberLoads(inst, choosePlacement(inst), p.live, slots)
	products, staged := p.fewtri.Extent()
	lw := lbm.NewLowering(inst.N, &lbm.Loads{Layout: p.Layout, Slot: slots, Prefix: cp.loaded}, products, staged)
	if err := p.emit(lw); err != nil {
		return nil, err
	}
	prog, err := lw.Program()
	if err != nil {
		return nil, err
	}
	cp.prog = prog
	if err := cp.prog.Finish(); err != nil {
		return nil, err
	}
	if err := cp.finish(inst.N, p.R); err != nil {
		return nil, err
	}
	return cp, nil
}

// numberLoads numbers the load slots of inst laid out by pl, the one rule
// compilation and decoding share: every live A cell, then every live B
// cell, then every live X cell, each support in row-major order, takes the
// next slot of its owner (lbm.Placement.Owner), and each dead cell is
// counted against its owner. It sets loadA, loadB, x, loaded and dead, so
// the loaded slots of node v are [0, loaded[v]) by construction. slots, if
// not the zero value, takes each live cell's slot plus one by support
// position and leaves a dead cell's zero (lbm.Loads): compilation lowers by
// it, decoding needs none of it. lives marks the live cells of Â, B̂ and X̂
// (graph.Instance.Live), as the planner's own triangle walk marked them; a
// restored plan has no planner and passes the zero value, and they are
// marked here.
func (cp *compiledPrepared) numberLoads(inst *graph.Instance, pl lbm.Placement, lives [3][]bool, slots [3][]int32) {
	n := inst.N
	if lives[0] == nil {
		lives[0], lives[1], lives[2] = inst.Live()
	}
	nLive := 0
	for _, live := range lives {
		for _, l := range live {
			if l {
				nLive++
			}
		}
	}
	refs := make([]loadRef, 0, nLive)
	counts := make([]int32, 2*n)
	loaded, dead := counts[:n:n], counts[n:]
	var loads [3][]loadRef
	for m, sup := range []*matrix.Support{inst.Ahat, inst.Bhat, inst.Xhat} {
		// Every cell counts against its owner as dead until it loads.
		pl.Owned(n, sup, dead)
		start, slot, i := len(refs), slots[m], int32(0)
		for k, l := range lives[m][:sup.NNZ] {
			if !l {
				continue
			}
			i = rowOf(sup.Off, i, int32(k))
			o := pl.Owner(n, i, int32(k))
			refs = append(refs, loadRef{k: int32(k), ref: lbm.SlotRef{Node: o, Slot: loaded[o]}})
			loaded[o]++
			dead[o]--
			if slot != nil {
				slot[k] = loaded[o]
			}
		}
		loads[m] = refs[start:len(refs):len(refs)]
	}
	cp.loaded, cp.dead = loaded, dead
	cp.loadA, cp.loadB, cp.x = loads[0], loads[1], loads[2]
}

// finish completes a compiled form whose loads are numbered (numberLoads)
// and whose program is in place — whether freshly lowered or decoded from
// a serialized snapshot; its program is finished (lbm.Program.Finish). It
// derives the arena sizes of an n-node machine, checks that every slot the
// program reads is defined first (lbm.Program.CheckDefs), prices the
// resident size and records the ring its executors run over. It fails when
// a ref is out of range or the arenas are not gap-free (arenaWalk), when
// the program needs a field and the ring is not one, and with
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
// compiled form exists (a plan not compiled yet).
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
