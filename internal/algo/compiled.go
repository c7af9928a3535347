package algo

import (
	"errors"
	"fmt"
	"sync"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// loadRef binds one live matrix position (i, j) to its arena slot; at is
// the position of column j within support row i.
type loadRef struct {
	i, j, at int32
	ref      lbm.SlotRef
}

// ErrLoadSlots reports a compiled form whose A, B and X load refs do not
// number each node's slots 0, 1, 2, … in load order. The loader marks the
// prefix [0, loaded[v]) present without writing presence per slot, so a gap
// would expose whatever a pooled executor's previous run left in the slot.
var ErrLoadSlots = errors.New("algo: load slots are not a prefix")

// ErrDeadCell reports a plan that reaches an A, B or X cell lying on no
// triangle. Such a cell has no slot in the loaded prefix, so the plan would
// find it absent at run time.
var ErrDeadCell = errors.New("algo: plan reaches a cell on no triangle")

// compiledPrepared is the compiled twin of a Prepared: the whole pipeline
// — input loading, phase-1 batches, the staging sweep, the Lemma 3.1 job
// and output collection — lowered against one shared SlotSpace, so
// MultiplyBatch is a pure array program. Executors are recycled through
// pools; in steady state a multiplication allocates no store memory at all.
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
	phase1       []*cluster.CompiledBatch
	stagingClear []lbm.SlotRef
	few          *fewtri.CompiledJob
	bytes        int64
	r            ring.Semiring
	// pools holds one executor pool per lane count: arenas are sized
	// slots×lanes, so executors only recycle within their own lane count.
	// Key int → value *sync.Pool of *lbm.Exec.
	pools sync.Map
}

// execFor returns a pooled executor carrying the given lane count, plus the
// pool to return it to after Reset.
func (cp *compiledPrepared) execFor(lanes int) (*lbm.Exec, *sync.Pool) {
	pi, ok := cp.pools.Load(lanes)
	if !ok {
		sizes, r := cp.sizes, cp.r
		pi, _ = cp.pools.LoadOrStore(lanes, &sync.Pool{
			New: func() any { return lbm.NewExecBatch(sizes, lanes, r) },
		})
	}
	pool := pi.(*sync.Pool)
	return pool.Get().(*lbm.Exec), pool
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
	for _, pb := range p.phase1 {
		cb, err := pb.Compile(sp)
		if err != nil {
			return nil, err
		}
		cp.phase1 = append(cp.phase1, cb)
	}
	// The staging sweep: every vnet staging key the phase-1 plans can have
	// created is known now (fewtri routes with plain keys only), so snapshot
	// their slots — clearing an absent slot is a no-op, exactly like
	// vnet.CleanupStaging deleting only present keys.
	sp.EachKey(func(node lbm.NodeID, k lbm.Key, slot int32) {
		if k.Kind == lbm.KStage {
			cp.stagingClear = append(cp.stagingClear, lbm.SlotRef{Node: node, Slot: slot})
		}
	})
	few, err := fewtri.Compile(sp, p.fewtri)
	if err != nil {
		return nil, err
	}
	cp.few = few
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
	cp.sizes = sp.Sizes()
	if err := cp.finish(p.R); err != nil {
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
	pos := 0
	for i, row := range sup.Rows {
		for at, j := range row {
			o := owner(int32(i), j)
			if live[pos] {
				refs = append(refs, loadRef{i: int32(i), j: j, at: int32(at), ref: sp.Ref(o, key(int32(i), j))})
			} else {
				cp.dead[o]++
			}
			pos++
		}
	}
	return refs
}

// finish completes a compiled form whose instruction state is in place —
// whether freshly lowered or decoded from a serialized snapshot: it records
// the loaded prefixes, prices the resident size and records the ring the
// executor pools build over. It fails with ErrLoadSlots when the load refs,
// taken in order, do not number each node's slots from 0 without a gap.
func (cp *compiledPrepared) finish(r ring.Semiring) error {
	cp.loaded = make([]int32, len(cp.sizes))
	for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
		for _, lr := range refs {
			v := lr.ref.Node
			if lr.ref.Slot != cp.loaded[v] {
				return fmt.Errorf("%w: node %d loads slot %d where slot %d is next", ErrLoadSlots, v, lr.ref.Slot, cp.loaded[v])
			}
			cp.loaded[v]++
		}
	}
	cp.bytes = int64(len(cp.loadA)+len(cp.loadB)+len(cp.x)) * 20
	cp.bytes += int64(len(cp.dead)) * 4
	cp.bytes += int64(len(cp.stagingClear)) * 8
	for _, cb := range cp.phase1 {
		cp.bytes += cb.MemoryBytes()
	}
	cp.bytes += cp.few.MemoryBytes()
	for _, sz := range cp.sizes {
		cp.bytes += int64(sz) * 12 // arena value + epoch stamp
	}
	cp.r = r
	return nil
}

// CompiledBytes reports the estimated resident size of the compiled form
// (instruction streams, slot tables and one executor's arenas). Serving
// caches use it as the memory cost of a cached Prepared.
func (p *Prepared) CompiledBytes() int64 {
	if p.compiled == nil {
		return 0
	}
	return p.compiled.bytes
}

// NodeLoads returns the per-node real-message loads of the prepared
// multiplication's compiled pipeline: send[v] and recv[v] are exactly the
// Stats.SendLoad[v]/RecvLoad[v] any execution of this structure will charge
// — rounds are a function of the structure only, so the loads are a
// compile-time property and need no execution. The load-aware partition
// balancer (internal/dist) consumes them. Returns nils when no compiled
// form exists (map-only algorithms).
func (p *Prepared) NodeLoads() (send, recv []int64) {
	cp := p.compiled
	if cp == nil {
		return nil, nil
	}
	send = make([]int64, p.Inst.N)
	recv = make([]int64, p.Inst.N)
	for _, cb := range cp.phase1 {
		cb.AddNodeLoads(send, recv)
	}
	cp.few.AddNodeLoads(send, recv)
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
	for _, cb := range cp.phase1 {
		cb.AddExchanges(rep)
	}
	cp.few.AddExchanges(rep)
	return rep
}
