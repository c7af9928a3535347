package lbm

import (
	"cmp"
	"fmt"
	"slices"

	"lbmm/internal/ring"
)

// This file is where a planner writes its step order, once. The supported
// model fixes the structure before any value arrives (§2), so every plan is
// a fixed bilinear program: route, multiply locally, route again, clear the
// staged copies. A planner writes that order at key level to an Emitter,
// and the Emitter decides what a step means. A Lowering compiles each step
// into a Program over one slot space, the form that serves; a *Machine runs
// each step at once, the map oracle the compiled program is checked
// against. Slots are a decision of the Lowering alone.

// Emitter is what a planner writes its steps to, in execution order.
type Emitter interface {
	// Route runs plan p inside its phase, if it has one (routePhase). Row
	// labels its row of the rounds-versus-exchanges table, fail the context
	// a failure is reported in ("fail: err"), and join says it rides the
	// chain of the route before it (Program.Route).
	Route(p *Plan, row, fail string, join bool) error
	// MulAcc adds a·b into dst, all three at host.
	MulAcc(host NodeID, a, b, dst Key)
	// Leaf multiplies the size×size blocks a and b into c locally at host.
	// It takes a field.
	Leaf(host NodeID, size int32, a, b, c Block) error
	// Clear removes the value under k at node.
	Clear(node NodeID, k Key)
	// ClearStaging removes every vnet staging snapshot (KStage) any route so
	// far can have left.
	ClearStaging()
	// The recorder calls: phase spans and span metrics.
	// CounterAt counts only where host is owned (anywhere, for host -1).
	BeginPhase(label string)
	EndPhase()
	Counter(name string, v float64)
	CounterAt(name string, host NodeID, v float64)
	// MarkSplit marks where the plan's rounds split: a run reports the
	// rounds counted before it.
	MarkSplit()
}

// Block is one operand of a leaf product at key level: element (u, v) of a
// size×size block is Key{Kind, u, v, Seq}, present where Present[u·size+v].
// An absent A or B element reads as zero; an absent C element is not
// written.
type Block struct {
	Kind    Kind
	Seq     int32
	Present []bool
}

// key returns the key of the block's element at row-major index i.
func (b Block) key(i, size int32) Key { return Key{Kind: b.Kind, I: i / size, J: i % size, Seq: b.Seq} }

// Lowering is the Emitter that compiles: it appends each step to a Program,
// numbering every key it meets a slot of its node's arena on first sight.
// One Lowering takes every planner of a pipeline, so a key staged by one
// plan and read by a later one resolves to the same slot.
type Lowering struct {
	// prog is held by pointer so that the program outlives the slot space
	// and the loads, which only lowering needs.
	prog *Program
	sp   SlotSpace
	tab  []int32 // Leaf's table scratch
}

// NewLowering returns an empty lowering for an n-node machine whose arenas
// hold loads before the first step (nil for none). A loaded cell at its
// owner takes its load slot, and every other key the next free slot of its
// node on first sight, after the node's loaded prefix. products and staged
// are how many local products the steps are expected to take and how many
// keys to stage and clear, which size the program and the slot index.
func NewLowering(n int, loads *Loads, products, staged int) *Lowering {
	lw := &Lowering{sp: *NewSlotSpace(n, staged)}
	lw.prog = &Program{N: n, Prods: make([]Prod, 0, products), Clears: make([]SlotRef, 0, staged)}
	if loads != nil {
		lw.sp.loads = loads
		copy(lw.sp.sizes, loads.Prefix)
	}
	return lw
}

// Program returns the program lowered so far, or ErrDeadCell when a step
// reached a loaded cell that is dead.
func (lw *Lowering) Program() (*Program, error) {
	if lw.sp.dead != nil {
		return nil, lw.sp.dead
	}
	return lw.prog, nil
}

// routePhase writes p's phase around route to e: BeginPhase, one Counter
// per metric in key order, the route, then EndPhase. A plan without a phase
// is the route alone. A failing route leaves the phase open, for the sink
// closes every open span when a route fails (Machine.Route,
// Exec.RunProgram).
func routePhase(e Emitter, p *Plan, route func() error) error {
	if p.phase == "" {
		return route()
	}
	e.BeginPhase(p.phase)
	keys := make([]string, 0, 8) // room for a phase's few metrics on the stack
	for k := range p.metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.Counter(k, p.metrics[k])
	}
	if err := route(); err != nil {
		return err
	}
	e.EndPhase()
	return nil
}

// Route compiles p into the slot space and appends a step running it inside
// p's phase steps; a plan that breaks a model rule fails as "fail: err".
func (lw *Lowering) Route(p *Plan, row, fail string, join bool) error {
	return routePhase(lw, p, func() error {
		cp, err := CompileInto(&lw.sp, p)
		if lw.sp.dead != nil {
			return lw.sp.dead
		}
		if err != nil {
			return fmt.Errorf("%s: %w", fail, err)
		}
		lw.prog.Route(cp, row, fail, join)
		return nil
	})
}

// MulAcc slots a, b and dst at host and appends the product.
func (lw *Lowering) MulAcc(host NodeID, a, b, dst Key) {
	lw.prog.MulAcc(lw.sp.Ref(host, a), lw.sp.Ref(host, b), lw.sp.Ref(host, dst))
}

// Leaf slots the present elements, element by element (A, B then C of
// each), and appends the leaf with its slot tables; -1 marks an absent
// element.
func (lw *Lowering) Leaf(host NodeID, size int32, a, b, c Block) error {
	area := size * size
	if cap(lw.tab) < int(3*area) {
		lw.tab = make([]int32, 3*area)
	}
	lw.tab = lw.tab[:3*area]
	for i := range area {
		for m, blk := range [3]Block{a, b, c} {
			sl := int32(-1)
			if blk.Present[i] {
				sl = lw.sp.Slot(host, blk.key(i, size))
			}
			lw.tab[int32(m)*area+i] = sl
		}
	}
	lw.prog.Leaf(host, size, lw.tab[:area], lw.tab[area:2*area], lw.tab[2*area:])
	return nil
}

// Clear appends the clearing of k's slot at node.
func (lw *Lowering) Clear(node NodeID, k Key) { lw.prog.Clear(lw.sp.Ref(node, k)) }

// ClearStaging clears the slot of every staging key slotted so far:
// clearing an absent value is a no-op, as the map engine deletes only
// present keys.
func (lw *Lowering) ClearStaging() {
	var staged []SlotRef
	for _, nk := range lw.sp.seen {
		if Kind(nk.kind) == KStage {
			sl, _ := lw.sp.Lookup(nk.node, nk.key())
			staged = append(staged, SlotRef{Node: nk.node, Slot: sl})
		}
	}
	// By node, then by slot: a node's keys are seen in slot order.
	slices.SortStableFunc(staged, func(a, b SlotRef) int { return cmp.Compare(a.Node, b.Node) })
	for _, r := range staged {
		lw.prog.Clear(r)
	}
}

// The recorder calls append themselves as steps.

func (lw *Lowering) BeginPhase(label string)        { lw.prog.BeginPhase(label) }
func (lw *Lowering) EndPhase()                      { lw.prog.EndPhase() }
func (lw *Lowering) Counter(name string, v float64) { lw.prog.Counter(name, v) }
func (lw *Lowering) MarkSplit()                     { lw.prog.MarkSplit() }
func (lw *Lowering) CounterAt(name string, host NodeID, v float64) {
	lw.prog.CounterAt(name, host, v)
}

// The Machine is the other Emitter: it runs each step as it is written.
// BeginPhase, EndPhase and Counter are its collector calls
// (machine.go).

// Route runs p inside its phase. A failure is reported as "fail: err" and
// ends the run with every open phase span closed, as Exec.RunProgram ends a
// failing program.
func (m *Machine) Route(p *Plan, _, fail string, _ bool) error {
	return routePhase(m, p, func() error {
		if err := m.Run(p); err != nil {
			for m.open > 0 {
				m.EndPhase()
			}
			return fmt.Errorf("%s: %w", fail, err)
		}
		return nil
	})
}

// MulAcc adds a·b into dst at host, if the machine owns host.
func (m *Machine) MulAcc(host NodeID, a, b, dst Key) {
	if m.Owns(host) {
		m.Acc(host, dst, m.R.Mul(m.MustGet(host, a), m.MustGet(host, b)))
	}
}

// Leaf multiplies one leaf block product at host, if the machine owns host,
// with ring.LocalMul. It fails on a ring without subtraction.
func (m *Machine) Leaf(host NodeID, size int32, a, b, c Block) error {
	if m.field == nil {
		return fmt.Errorf("lbm: a leaf block product needs a field, ring %s is not one", m.R.Name())
	}
	if !m.Owns(host) {
		return nil
	}
	area := size * size
	vals := make([]ring.Value, 3*area)
	av, bv, cv := vals[:area], vals[area:2*area], vals[2*area:]
	for i := range area {
		if a.Present[i] {
			av[i], _ = m.Get(host, a.key(i, size))
		}
		if b.Present[i] {
			bv[i], _ = m.Get(host, b.key(i, size))
		}
	}
	ring.LocalMul(m.field, av, bv, cv, int(size))
	for i, v := range cv {
		if c.Present[i] {
			m.Put(host, c.key(int32(i), size), v)
		}
	}
	return nil
}

// ClearStaging deletes every staging snapshot from every store.
func (m *Machine) ClearStaging() {
	for _, st := range m.stores {
		for k := range st {
			if k.Kind == KStage {
				delete(st, k)
			}
		}
	}
}

// CounterAt adds delta to a named metric of the current phase span if the
// machine owns host (always, for host -1).
func (m *Machine) CounterAt(name string, host NodeID, delta float64) {
	if host < 0 || m.Owns(host) {
		m.Counter(name, delta)
	}
}

// MarkSplit records the rounds counted so far as the split (Split).
func (m *Machine) MarkSplit() { m.split = m.stats.Rounds }

// Split returns the rounds counted before MarkSplit, 0 before any.
func (m *Machine) Split() int { return m.split }

var (
	_ Emitter = (*Lowering)(nil)
	_ Emitter = (*Machine)(nil)
)
