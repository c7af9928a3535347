package lbm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lbmm/internal/ring"
)

// compareMachines checks that two map machines hold exactly the same stores
// (restricted, for a partitioned machine, to the nodes it owns).
func compareMachineOwned(t *testing.T, ref, got *Machine) {
	t.Helper()
	for node := range ref.stores {
		if !got.Owns(NodeID(node)) {
			if len(got.stores[node]) != 0 {
				t.Errorf("node %d: partitioned machine holds %d values it does not own", node, len(got.stores[node]))
			}
			continue
		}
		if len(ref.stores[node]) != len(got.stores[node]) {
			t.Errorf("node %d: %d values vs %d", node, len(ref.stores[node]), len(got.stores[node]))
		}
		for k, v := range ref.stores[node] {
			if gv, ok := got.stores[node][k]; !ok || gv != v {
				t.Errorf("node %d key %v: want %v, got (%v,%v)", node, k, v, gv, ok)
			}
		}
	}
}

// TestLoopbackParityMachine holds the loopback transport to bit-identical
// stores and Stats against the nil-transport map engine on random plans.
func TestLoopbackParityMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		ref, err := runMap(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: nil transport: %v", trial, err)
		}
		lb, err := runMap(t, p, loads, ring.Real{}, WithTransport(&Loopback{}))
		if err != nil {
			t.Fatalf("trial %d: loopback: %v", trial, err)
		}
		compareMachineOwned(t, ref, lb)
		if !reflect.DeepEqual(ref.Stats(), lb.Stats()) {
			t.Fatalf("trial %d: stats diverge:\n nil      %+v\n loopback %+v", trial, ref.Stats(), lb.Stats())
		}
	}
}

// TestLoopbackParityExec does the same for the compiled engine, including a
// multi-lane executor.
func TestLoopbackParityExec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		sp, ref, err := runCompiled(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: nil transport: %v", trial, err)
		}
		_, lb, err := runCompiled(t, p, loads, ring.Real{}, WithTransport(&Loopback{}))
		if err != nil {
			t.Fatalf("trial %d: loopback: %v", trial, err)
		}
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			rv, rok := ref.GetSlot(SlotRef{Node: node, Slot: slot})
			lv, lok := lb.GetSlot(SlotRef{Node: node, Slot: slot})
			if rok != lok || rv != lv {
				t.Errorf("trial %d node %d key %v: nil (%v,%v) vs loopback (%v,%v)", trial, node, k, rv, rok, lv, lok)
			}
		})
		if !reflect.DeepEqual(ref.Stats(), lb.Stats()) {
			t.Fatalf("trial %d: stats diverge:\n nil      %+v\n loopback %+v", trial, ref.Stats(), lb.Stats())
		}
	}
}

// TestLoopbackRoundBytes pins the RoundBytes accounting: one value is 8
// bytes, rounds of only local copies are not counted, and the nil and
// loopback paths agree.
func TestLoopbackRoundBytes(t *testing.T) {
	m := New(3, ring.Real{})
	m.Put(0, AKey(0, 0), 7)
	m.Put(1, AKey(1, 1), 8)
	r := Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: TKey(0, 1, 0), Op: OpSet},
		{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(0, 2, 0), Op: OpSet},
	}
	if err := m.RunRound(r); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRound(Round{{From: 2, To: 2, Src: TKey(0, 2, 0), Dst: TKey(1, 2, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if want := []int64{16}; !reflect.DeepEqual(st.RoundBytes, want) {
		t.Fatalf("RoundBytes = %v, want %v", st.RoundBytes, want)
	}
}

// ---------------------------------------------------------------------------
// In-process partitioned transport for testing: P participants over shared
// memory with a real per-round barrier, the semantics dist.Mesh implements
// over sockets — per round one slab of values per (sender rank, receiver
// rank) pair in instruction order, a count check at the barrier, in-order
// consumption afterwards.

type testRouter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ranks   int
	table   []int // node → rank; nil is the modulo map
	arrived int
	gen     int
	dead    bool             // a participant gave up: nobody waits for it
	pool    [][][]ring.Value // [src][dst] slabs of the round being collected
	ready   [][][]ring.Value // the last completed round's slabs
}

func newTestRouter(ranks int, table []int) *testRouter {
	r := &testRouter{ranks: ranks, table: table, pool: make([][][]ring.Value, ranks)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *testRouter) rankOf(v NodeID) int {
	if r.table != nil {
		return r.table[v]
	}
	return int(v) % r.ranks
}

// fail releases every participant waiting at the barrier, now and later: a
// participant whose run ended in an error calls it so the rest do not wait
// for a barrier it will never reach.
func (r *testRouter) fail() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dead = true
	r.cond.Broadcast()
}

// exchange publishes one rank's outgoing slabs (indexed by receiver rank),
// waits for every rank, and returns the slabs addressed to it, indexed by
// sender rank; nil once a participant has failed.
func (r *testRouter) exchange(rank int, out [][]ring.Value) [][]ring.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	r.pool[rank] = out
	r.arrived++
	if r.arrived == r.ranks {
		r.ready = r.pool
		r.pool = make([][][]ring.Value, r.ranks)
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
	} else {
		for gen == r.gen && !r.dead {
			r.cond.Wait()
		}
	}
	if gen == r.gen {
		return nil // released by fail, not by the barrier completing
	}
	in := make([][]ring.Value, r.ranks)
	for src := range in {
		in[src] = r.ready[src][rank]
	}
	return in
}

type testTransport struct {
	router *testRouter
	rank   int
	out    [][]ring.Value // by receiver rank
	owed   []int          // values announced by Expect, by sender rank
	in     [][]ring.Value // by sender rank, consumed from the front
	// delivers counts Deliver calls: the exchanges this participant blocked on.
	delivers int
}

func (tt *testTransport) Owns(v NodeID) bool { return tt.router.rankOf(v) == tt.rank }

func (tt *testTransport) Send(round int, from, to NodeID, payload []ring.Value) error {
	if !tt.Owns(from) {
		return fmt.Errorf("rank %d asked to send for node %d it does not own", tt.rank, from)
	}
	if tt.out == nil {
		tt.out = make([][]ring.Value, tt.router.ranks)
	}
	dst := tt.router.rankOf(to)
	tt.out[dst] = append(tt.out[dst], payload...)
	return nil
}

func (tt *testTransport) Expect(round int, from, to NodeID, lanes int) error {
	if tt.Owns(from) || !tt.Owns(to) {
		return fmt.Errorf("rank %d expects %d→%d, which is not an inbound remote message", tt.rank, from, to)
	}
	if tt.owed == nil {
		tt.owed = make([]int, tt.router.ranks)
	}
	tt.owed[tt.router.rankOf(from)] += lanes
	return nil
}

func (tt *testTransport) Deliver(round int) error {
	for src, slab := range tt.in {
		if len(slab) != 0 {
			return fmt.Errorf("rank %d round %d: %d values from rank %d left unconsumed: %w", tt.rank, round, len(slab), src, ErrRoundCount)
		}
	}
	out := tt.out
	if out == nil {
		out = make([][]ring.Value, tt.router.ranks)
	}
	tt.out = nil // the receivers read these slabs while we move on
	tt.delivers++
	if tt.in = tt.router.exchange(tt.rank, out); tt.in == nil {
		return fmt.Errorf("rank %d round %d: a participant failed", tt.rank, round)
	}
	for src, slab := range tt.in {
		want := 0
		if src != tt.rank && tt.owed != nil {
			want = tt.owed[src]
		}
		if src != tt.rank && len(slab) != want {
			return fmt.Errorf("rank %d round %d: rank %d delivered %d values, owes %d: %w", tt.rank, round, src, len(slab), want, ErrRoundCount)
		}
	}
	tt.owed = nil
	return nil
}

func (tt *testTransport) Recv(from, to NodeID, dst []ring.Value) error {
	src := tt.router.rankOf(from)
	if len(tt.in[src]) < len(dst) {
		return fmt.Errorf("rank %d: node %d wants %d values of node %d, rank %d has %d left: %w", tt.rank, to, len(dst), from, src, len(tt.in[src]), ErrRoundCount)
	}
	copy(dst, tt.in[src])
	tt.in[src] = tt.in[src][len(dst):]
	return nil
}

// testTables are the node→rank maps the partitioned parity tests run under:
// the modulo map, and an uneven one under which plan order, not v mod p,
// decides what each peer owes.
var testTables = [][]int{nil, {2, 2, 0, 1, 0, 0}}

// TestPartitionedParityMachine runs the map engine split across 3 in-process
// participants and checks that the union of their owned stores and the merge
// of their Stats equal the single-process run.
func TestPartitionedParityMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const ranks = 3
	for trial := 0; trial < 50; trial++ {
		table := testTables[trial%len(testTables)]
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		ref, err := runMap(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		ms := make([]*Machine, ranks)
		_, errs := runPartitioned(ranks, table, func(rank int, tt *testTransport) error {
			m := New(6, ring.Real{}, WithTransport(tt))
			for _, l := range loads {
				m.Put(l.node, l.key, l.val) // dropped unless owned
			}
			ms[rank] = m
			return m.Run(p)
		})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("trial %d rank %d: %v", trial, rank, err)
			}
		}
		for _, m := range ms {
			compareMachineOwned(t, ref, m)
		}
		merged := MergeStats(ms[0].Stats(), ms[1].Stats(), ms[2].Stats())
		if !reflect.DeepEqual(ref.Stats(), merged) {
			t.Fatalf("trial %d: merged stats diverge:\n single %+v\n merged %+v", trial, ref.Stats(), merged)
		}
	}
}

// TestPartitionedParityExec is the compiled-engine twin of
// TestPartitionedParityMachine, with 2 lanes to cover multi-value payloads.
func TestPartitionedParityExec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const ranks, lanes = 3, 2
	for trial := 0; trial < 50; trial++ {
		table := testTables[trial%len(testTables)]
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		sp := NewSlotSpace(6)
		for _, l := range loads {
			sp.Slot(l.node, l.key)
		}
		cp, err := CompileInto(sp, p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		run := func(opts ...Option) (*Exec, error) {
			x := NewExecBatch(sp.Sizes(), lanes, ring.Real{}, opts...)
			for _, l := range loads {
				for lane := 0; lane < lanes; lane++ {
					x.PutLane(sp.Ref(l.node, l.key), lane, l.val+ring.Value(lane))
				}
			}
			return x, x.Run(cp)
		}
		ref, err := run()
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		rankOf := newTestRouter(ranks, table).rankOf
		xs := make([]*Exec, ranks)
		_, errs := runPartitioned(ranks, table, func(rank int, tt *testTransport) (err error) {
			xs[rank], err = run(WithTransport(tt))
			return err
		})
		var stats []Stats
		for rank := 0; rank < ranks; rank++ {
			if errs[rank] != nil {
				t.Fatalf("trial %d rank %d: %v", trial, rank, errs[rank])
			}
			stats = append(stats, xs[rank].Stats())
		}
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			owner := rankOf(node)
			for lane := 0; lane < lanes; lane++ {
				rv, rok := ref.GetLane(SlotRef{Node: node, Slot: slot}, lane)
				gv, gok := xs[owner].GetLane(SlotRef{Node: node, Slot: slot}, lane)
				if rok != gok || rv != gv {
					t.Errorf("trial %d node %d key %v lane %d: single (%v,%v) vs owner (%v,%v)",
						trial, node, k, lane, rv, rok, gv, gok)
				}
			}
		})
		if merged := MergeStats(stats...); !reflect.DeepEqual(ref.Stats(), merged) {
			t.Fatalf("trial %d: merged stats diverge:\n single %+v\n merged %+v", trial, ref.Stats(), merged)
		}
	}
}

// TestLoadPrefixPartitioned checks BeginLoad under a 3-participant
// partition, with 2 lanes: it stamps only the owned nodes' input prefixes,
// and each participant then runs to the same stores and Stats as one loaded
// slot by slot with PutLane (which drops non-owned writes).
func TestLoadPrefixPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const ranks, lanes = 3, 2
	for trial := 0; trial < 20; trial++ {
		table := testTables[trial%len(testTables)]
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		sp := NewSlotSpace(6)
		for _, l := range loads {
			sp.Slot(l.node, l.key)
		}
		loaded := sp.Sizes()
		cp, err := CompileInto(sp, p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		run := func(stamp bool) []*Exec {
			xs := make([]*Exec, ranks)
			_, errs := runPartitioned(ranks, table, func(rank int, tt *testTransport) error {
				x := NewExecBatch(sp.Sizes(), lanes, ring.Real{}, WithTransport(tt))
				xs[rank] = x
				if !stamp {
					for _, l := range loads {
						for lane := 0; lane < lanes; lane++ {
							x.PutLane(sp.Ref(l.node, l.key), lane, l.val+ring.Value(lane))
						}
					}
					return x.Run(cp)
				}
				arena := x.BeginLoad(loaded, nil)
				for _, l := range loads {
					ref := sp.Ref(l.node, l.key)
					for lane := 0; lane < lanes; lane++ {
						arena[ref.Node][int(ref.Slot)*lanes+lane] = l.val + ring.Value(lane)
					}
				}
				for v, n := range loaded {
					for slot := int32(0); slot < n; slot++ {
						if got := x.Present(SlotRef{Node: NodeID(v), Slot: slot}); got != tt.Owns(NodeID(v)) {
							return fmt.Errorf("rank %d: node %d slot %d present=%v after BeginLoad", rank, v, slot, got)
						}
					}
				}
				return x.Run(cp)
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("trial %d stamp %v rank %d: %v", trial, stamp, rank, err)
				}
			}
			return xs
		}
		put, stamped := run(false), run(true)
		for rank := 0; rank < ranks; rank++ {
			sp.EachKey(func(node NodeID, k Key, slot int32) {
				for lane := 0; lane < lanes; lane++ {
					pv, pok := put[rank].GetLane(SlotRef{Node: node, Slot: slot}, lane)
					sv, sok := stamped[rank].GetLane(SlotRef{Node: node, Slot: slot}, lane)
					if pok != sok || pv != sv {
						t.Errorf("trial %d rank %d node %d key %v lane %d: put (%v,%v) vs stamp (%v,%v)",
							trial, rank, node, k, lane, pv, pok, sv, sok)
					}
				}
			})
			if !reflect.DeepEqual(put[rank].Stats(), stamped[rank].Stats()) {
				t.Fatalf("trial %d rank %d: stats diverge:\n put   %+v\n stamp %+v", trial, rank, put[rank].Stats(), stamped[rank].Stats())
			}
		}
	}
}

// TestPartitionedFaultIdentity checks that under a shared injector every
// participant aborts with the same typed fault, before any frame is sent —
// the property that keeps a real mesh from stranding peers at the barrier.
func TestPartitionedFaultIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p, loads := randomPlan(rng, 6, 5, false)
	inj := dropAt{round: 1, ord: 0}
	ref, err := runMap(t, p, loads, ring.Real{}, WithInjector(inj))
	rf, ok := AsFault(err)
	if !ok {
		t.Fatalf("reference run: want fault, got %v", err)
	}
	_, errs := runPartitioned(3, nil, func(rank int, tt *testTransport) error {
		m := New(6, ring.Real{}, WithTransport(tt), WithInjector(inj))
		for _, l := range loads {
			m.Put(l.node, l.key, l.val)
		}
		return m.Run(p)
	})
	for rank, err := range errs {
		f, ok := AsFault(err)
		if !ok {
			t.Fatalf("rank %d: want fault, got %v", rank, err)
		}
		if *f != *rf {
			t.Errorf("rank %d: fault %+v, reference %+v", rank, *f, *rf)
		}
	}
	_ = ref
}

// dropAt drops the ord-th message of one round (test injector).
type dropAt struct{ round, ord int }

func (d dropAt) Decide(round, ord int, from, to NodeID) FaultKind {
	if round == d.round && ord == d.ord {
		return FaultDrop
	}
	return FaultNone
}

func (d dropAt) Straggles(int, NodeID) bool { return false }
