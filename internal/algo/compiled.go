package algo

import (
	"sync"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

// loadRef binds one matrix position (i, j) to its arena slot.
type loadRef struct {
	i, j int32
	ref  lbm.SlotRef
}

// compiledPrepared is the compiled twin of a Prepared: the whole pipeline
// — input loading, phase-1 batches, the staging sweep, the Lemma 3.1 job
// and output collection — lowered against one shared SlotSpace, so
// MultiplyBatch is a pure array program. Executors are recycled through
// pools; in steady state a multiplication allocates no store memory at all.
type compiledPrepared struct {
	sizes        []int32
	loadA, loadB []loadRef
	// x holds the output slots in Xhat row order: zero-initialized before
	// the run, collected after it.
	x            []loadRef
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
// same sequence the map engine would create them.
func compilePrepared(p *Prepared) (*compiledPrepared, error) {
	sp := lbm.NewSlotSpace(p.Inst.N)
	cp := &compiledPrepared{}
	for i, row := range p.Inst.Ahat.Rows {
		for _, j := range row {
			cp.loadA = append(cp.loadA, loadRef{i: int32(i), j: j,
				ref: sp.Ref(p.Layout.OwnerA(int32(i), j), lbm.AKey(int32(i), j))})
		}
	}
	for j, row := range p.Inst.Bhat.Rows {
		for _, k := range row {
			cp.loadB = append(cp.loadB, loadRef{i: int32(j), j: k,
				ref: sp.Ref(p.Layout.OwnerB(int32(j), k), lbm.BKey(int32(j), k))})
		}
	}
	for i, row := range p.Inst.Xhat.Rows {
		for _, k := range row {
			cp.x = append(cp.x, loadRef{i: int32(i), j: k,
				ref: sp.Ref(p.Layout.OwnerX(int32(i), k), lbm.XKey(int32(i), k))})
		}
	}
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
	cp.sizes = sp.Sizes()
	cp.finish(p.R)
	return cp, nil
}

// finish completes a compiled form whose instruction state is in place —
// whether freshly lowered or decoded from a serialized snapshot: it prices
// the resident size and records the ring the executor pools build over.
func (cp *compiledPrepared) finish(r ring.Semiring) {
	cp.bytes = int64(len(cp.loadA)+len(cp.loadB)+len(cp.x)) * 16
	cp.bytes += int64(len(cp.stagingClear)) * 8
	for _, cb := range cp.phase1 {
		cp.bytes += cb.MemoryBytes()
	}
	cp.bytes += cp.few.MemoryBytes()
	for _, sz := range cp.sizes {
		cp.bytes += int64(sz) * 12 // arena value + epoch stamp
	}
	cp.r = r
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
