package lbm

import (
	"errors"
	"fmt"

	"lbmm/internal/ring"
)

// This file is the one compiled form of a whole multiplication. The
// supported model fixes the structure before any value arrives (§2), so
// every plan here is a fixed bilinear program: route, multiply locally,
// route again, clear the staged copies. A Program writes that alternation
// down as one flat list of steps over typed slabs. Every planner (dense,
// cluster, fewtri) appends its steps to one program against one shared
// SlotSpace, one executor loop (Exec.RunProgram) runs it, one wire form
// (WireWriter.Program, WireReader.Program) stores it, and every reader of a
// plan (VisitRefs, AddNodeLoads, AddExchanges, CheckDefs) walks the same
// list. Steps are a switch over slab ranges, never an interface call per
// product.

// StepKind names what one step of a Program does.
type StepKind uint8

const (
	// StepRoute runs Routes[Arg].Plan. Route steps take the routes in order,
	// each once.
	StepRoute StepKind = iota
	// StepMulAcc adds a·b into dst for each of Prods[Lo:Hi] whose host (the
	// node of a) this executor owns.
	StepMulAcc
	// StepLeaf multiplies each of Leaves[Lo:Hi] locally at its host, if this
	// executor owns it.
	StepLeaf
	// StepClear removes the values at Clears[Lo:Hi].
	StepClear
	// StepBegin opens the phase span Labels[Arg].
	StepBegin
	// StepEnd closes the innermost open phase span.
	StepEnd
	// StepMark marks Labels[Arg] on the round timeline.
	StepMark
	// StepCounter adds each value of Counts[Lo:Hi] to the metric Labels[Arg]
	// of the current span, a count with a host only where this executor owns
	// that host.
	StepCounter
	numStepKinds
)

// Step is one instruction of a Program: a kind, a label or route index, and
// a range of the slab the kind reads.
type Step struct {
	Kind   StepKind
	Arg    int32
	Lo, Hi int32
}

// Route is one compiled round plan of a program. Row labels the plan's row
// of the rounds-versus-exchanges table (Labels[Row]) and Fail the context a
// failure of the plan is reported in (Labels[Fail]), both as the map engine
// names them; Join says the plan rides the chain of the route run before it
// — nothing but collector events may separate them — so their rounds may
// share exchanges (exchange.go).
type Route struct {
	Plan      *CompiledPlan
	Row, Fail int32
	Join      bool
}

// Prod is one local product lowered to arena addressing: Dst += A·B, all
// three at one host.
type Prod struct{ A, B, Dst SlotRef }

// Leaf is a local dense block product at one host: Size×Size blocks whose
// slot tables lie in Program.Tables from Tab on — A, B then C, Size² entries
// each, row-major, -1 for a structurally absent element. An absent A or B
// element reads as zero; an absent C element is not written.
type Leaf struct {
	Host NodeID
	Size int32
	Tab  int32
}

// Count is one value a StepCounter adds; Host -1 counts on every executor.
type Count struct {
	Host NodeID
	V    float64
}

// Program is a compiled multiplication: Steps over the slabs below, for an
// N-node machine. Split is a step index: RunProgram reports the rounds
// counted before it, which is how a two-phase plan learns phase 1's rounds.
// A program is built by appending (Route, MulAcc, Leaf, Clear and the
// collector events) or read from a wire body, and is checked and completed
// by Finish before it runs. It is read-only after Finish.
type Program struct {
	N      int
	Split  int
	Steps  []Step
	Routes []Route
	Prods  []Prod
	Leaves []Leaf
	Tables []int32
	Counts []Count
	Clears []SlotRef
	Labels []string

	// Derived by Finish, never serialized: each route's chain and position
	// in it, whether the program needs a field (it subtracts or has a leaf),
	// and the largest leaf's Size² (the executor's leaf scratch).
	chains   []*Chain
	pos      []int32
	field    bool
	leafArea int
	// label indexes Labels while the program is being built; Finish drops
	// it.
	label map[string]int32
}

// NewProgram returns an empty program for an n-node machine.
func NewProgram(n int) *Program { return &Program{N: n} }

// labelOf returns the index of s in Labels, appending it on first use.
func (p *Program) labelOf(s string) int32 {
	if p.label == nil {
		p.label = make(map[string]int32, len(p.Labels))
		for i, l := range p.Labels {
			p.label[l] = int32(i)
		}
	}
	i, ok := p.label[s]
	if !ok {
		i = int32(len(p.Labels))
		p.Labels = append(p.Labels, s)
		p.label[s] = i
	}
	return i
}

// extend appends one entry to the range step of kind k that ends the
// program, starting one if the last step is another; n is the entry's index
// in its slab.
func (p *Program) extend(k StepKind, arg int32, n int) {
	if last := len(p.Steps) - 1; last >= 0 && p.Steps[last].Kind == k && p.Steps[last].Arg == arg && int(p.Steps[last].Hi) == n {
		p.Steps[last].Hi++
		return
	}
	p.Steps = append(p.Steps, Step{Kind: k, Arg: arg, Lo: int32(n), Hi: int32(n) + 1})
}

// Route appends a step running cp, whose exchange-table row is row and
// whose failure is reported as "fail: err". With join the plan continues
// the chain of the route before it.
func (p *Program) Route(cp *CompiledPlan, row, fail string, join bool) {
	p.Steps = append(p.Steps, Step{Kind: StepRoute, Arg: int32(len(p.Routes))})
	p.Routes = append(p.Routes, Route{Plan: cp, Row: p.labelOf(row), Fail: p.labelOf(fail), Join: join})
}

// MulAcc appends the local product dst += a·b at a's host.
func (p *Program) MulAcc(a, b, dst SlotRef) {
	p.extend(StepMulAcc, 0, len(p.Prods))
	p.Prods = append(p.Prods, Prod{A: a, B: b, Dst: dst})
}

// Leaf appends a size×size local block product at host through its slot
// tables a, b and c (size² entries each, -1 for an absent element).
func (p *Program) Leaf(host NodeID, size int32, a, b, c []int32) {
	p.extend(StepLeaf, 0, len(p.Leaves))
	p.Leaves = append(p.Leaves, Leaf{Host: host, Size: size, Tab: int32(len(p.Tables))})
	p.Tables = append(append(append(p.Tables, a...), b...), c...)
}

// Clear appends the removal of the value at r.
func (p *Program) Clear(r SlotRef) {
	p.extend(StepClear, 0, len(p.Clears))
	p.Clears = append(p.Clears, r)
}

// BeginPhase appends the opening of a phase span.
func (p *Program) BeginPhase(label string) {
	p.Steps = append(p.Steps, Step{Kind: StepBegin, Arg: p.labelOf(label)})
}

// EndPhase appends the closing of the innermost phase span.
func (p *Program) EndPhase() { p.Steps = append(p.Steps, Step{Kind: StepEnd}) }

// Mark appends a timeline mark.
func (p *Program) Mark(label string) {
	p.Steps = append(p.Steps, Step{Kind: StepMark, Arg: p.labelOf(label)})
}

// Counter appends a metric increment every executor records.
func (p *Program) Counter(name string, v float64) { p.CounterAt(name, -1, v) }

// CounterAt appends a metric increment only the executor owning host records
// (any executor, for host -1).
func (p *Program) CounterAt(name string, host NodeID, v float64) {
	p.extend(StepCounter, p.labelOf(name), len(p.Counts))
	p.Counts = append(p.Counts, Count{Host: host, V: v})
}

// MarkSplit records the next step as the split RunProgram reports rounds at.
func (p *Program) MarkSplit() { p.Split = len(p.Steps) }

// ErrProgram reports a program whose steps do not fit its slabs or its
// machine: an unknown step kind, a range or index outside its slab, a node
// outside the machine, a leaf whose tables overrun Tables, unbalanced phase
// spans, or a joined route with computation before it.
var ErrProgram = errors.New("lbm: malformed program")

// ErrUseBeforeDef reports a program that reads a slot no earlier step — and
// no load — has defined (CheckDefs).
var ErrUseBeforeDef = errors.New("lbm: program reads a slot before anything defines it")

// Finish checks a program against its slabs and machine and derives what a
// run needs: each route's chain, whether the program needs a field, and the
// leaf scratch. Plans must already have passed the model-rule pass
// (CompileInto or WireReader.Plan). Slots are bounded by the arena pass of
// the caller, which sizes the arenas from VisitRefs.
func (p *Program) Finish() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrProgram}, args...)...)
	}
	if p.N < 1 {
		return bad("machine size %d", p.N)
	}
	if p.Split < 0 || p.Split > len(p.Steps) {
		return bad("split at step %d of %d", p.Split, len(p.Steps))
	}
	node := func(v NodeID) bool { return v >= 0 && int(v) < p.N }
	p.field, p.leafArea, p.label = false, 0, nil
	for i, r := range p.Routes {
		if r.Plan.N != p.N {
			return bad("route %d is a plan for %d nodes", i, r.Plan.N)
		}
		if r.Row < 0 || int(r.Row) >= len(p.Labels) || r.Fail < 0 || int(r.Fail) >= len(p.Labels) {
			return bad("route %d has labels %d and %d of %d", i, r.Row, r.Fail, len(p.Labels))
		}
		p.field = p.field || r.Plan.HasSub
	}
	for i, pr := range p.Prods {
		if !node(pr.A.Node) || pr.B.Node != pr.A.Node || pr.Dst.Node != pr.A.Node {
			return bad("product %d at nodes %d, %d and %d", i, pr.A.Node, pr.B.Node, pr.Dst.Node)
		}
	}
	for i, l := range p.Leaves {
		area := int64(l.Size) * int64(l.Size)
		if !node(l.Host) || l.Size < 0 || l.Tab < 0 || int64(l.Tab)+3*area > int64(len(p.Tables)) {
			return bad("leaf %d: host %d, size %d, tables from %d of %d", i, l.Host, l.Size, l.Tab, len(p.Tables))
		}
		p.leafArea = max(p.leafArea, int(area))
	}
	for i, c := range p.Counts {
		if c.Host != -1 && !node(c.Host) {
			return bad("count %d at node %d", i, c.Host)
		}
	}
	for i, r := range p.Clears {
		if !node(r.Node) {
			return bad("clear %d at node %d", i, r.Node)
		}
	}
	p.chains, p.pos = make([]*Chain, len(p.Routes)), make([]int32, len(p.Routes))
	routes, depth, computed := 0, 0, true
	for i, s := range p.Steps {
		inRange := func(n int) bool { return s.Lo >= 0 && s.Lo <= s.Hi && int(s.Hi) <= n }
		label := s.Arg >= 0 && int(s.Arg) < len(p.Labels)
		ok := true
		switch s.Kind {
		case StepRoute:
			if ok = int(s.Arg) == routes && routes < len(p.Routes); !ok {
				break
			}
			r := p.Routes[routes]
			if r.Join {
				if computed {
					return bad("step %d joins a chain after local work", i)
				}
				c := p.chains[routes-1]
				c.Plans = append(c.Plans, r.Plan)
				p.chains[routes], p.pos[routes] = c, int32(len(c.Plans)-1)
			} else {
				p.chains[routes] = &Chain{Plans: []*CompiledPlan{r.Plan}}
			}
			routes++
			computed = false
		case StepMulAcc:
			ok, computed = inRange(len(p.Prods)), true
		case StepLeaf:
			ok, computed = inRange(len(p.Leaves)), true
			p.field = p.field || s.Hi > s.Lo
		case StepClear:
			ok, computed = inRange(len(p.Clears)), true
		case StepBegin:
			ok = label
			depth++
		case StepEnd:
			depth--
			ok = depth >= 0
		case StepMark:
			ok = label
		case StepCounter:
			ok = label && inRange(len(p.Counts))
		default:
			return bad("step %d has unknown kind %d", i, s.Kind)
		}
		if !ok {
			return bad("step %d (kind %d, arg %d, range [%d,%d)) out of range", i, s.Kind, s.Arg, s.Lo, s.Hi)
		}
	}
	if routes != len(p.Routes) {
		return bad("%d route steps for %d routes", routes, len(p.Routes))
	}
	if depth != 0 {
		return bad("%d phase spans left open", depth)
	}
	return nil
}

// NeedsField reports whether the program subtracts or multiplies a leaf
// block, which takes a field.
func (p *Program) NeedsField() bool { return p.field }

// SpanAt returns the label of the span step i opens, or "" if step i is not
// a StepBegin.
func (p *Program) SpanAt(i int) string {
	if i < 0 || i >= len(p.Steps) || p.Steps[i].Kind != StepBegin {
		return ""
	}
	return p.Labels[p.Steps[i].Arg]
}

// Runs reports whether any step in [lo, hi) runs a route.
func (p *Program) Runs(lo, hi int) bool {
	for _, s := range p.Steps[lo:hi] {
		if s.Kind == StepRoute {
			return true
		}
	}
	return false
}

// VisitRefs hands v every slot the program touches: each route's plan whole,
// then each product's operands and destination, each leaf's present
// elements and each cleared slot.
func (p *Program) VisitRefs(v RefVisitor) {
	for _, r := range p.Routes {
		v.Plan(r.Plan)
	}
	for _, pr := range p.Prods {
		v.Ref(pr.A)
		v.Ref(pr.B)
		v.Ref(pr.Dst)
	}
	for _, l := range p.Leaves {
		for _, sl := range p.Tables[l.Tab : int64(l.Tab)+3*int64(l.Size)*int64(l.Size)] {
			if sl != -1 {
				v.Ref(SlotRef{Node: l.Host, Slot: sl})
			}
		}
	}
	for _, r := range p.Clears {
		v.Ref(r)
	}
}

// AddNodeLoads accumulates the per-node real-message loads of every route;
// local work moves no messages.
func (p *Program) AddNodeLoads(send, recv []int64) {
	for _, r := range p.Routes {
		r.Plan.AddNodeLoads(send, recv)
	}
}

// AddExchanges adds each chain of the program to the report, in execution
// order, each plan under its route's row label.
func (p *Program) AddExchanges(rep *ExchangeReport) {
	var rows []string
	for i, r := range p.Routes {
		rows = append(rows, p.Labels[r.Row])
		if i+1 == len(p.Routes) || p.chains[i+1] != p.chains[i] {
			rep.AddChain(p.chains[i], rows...)
			rows = rows[:0]
		}
	}
}

// MemoryBytes estimates the resident size of the program: its plans and
// slabs.
func (p *Program) MemoryBytes() int64 {
	n := int64(len(p.Steps))*16 + int64(len(p.Prods))*24 + int64(len(p.Leaves))*12 +
		int64(len(p.Tables))*4 + int64(len(p.Counts))*16 + int64(len(p.Clears))*8
	for _, r := range p.Routes {
		n += r.Plan.MemoryBytes() + 16
	}
	for _, l := range p.Labels {
		n += int64(len(l)) + 16
	}
	return n
}

// CheckDefs walks the program once in execution order and fails with
// ErrUseBeforeDef where a step reads a slot nothing has defined. defined is
// indexed by off[node]+slot; on entry it holds the slots defined before the
// first step (the loads), and on return the state after the last. A route
// reads its sources at each round's start and defines its destinations; a
// product reads both operands and defines its destination; a leaf defines
// its present C elements (its A and B reads take an absent element as
// zero); a clear undefines. The refs must already be inside the arenas off
// lays out.
func (p *Program) CheckDefs(defined []bool, off []int64) error {
	at := func(r SlotRef) *bool { return &defined[off[r.Node]+int64(r.Slot)] }
	for i, s := range p.Steps {
		switch s.Kind {
		case StepRoute:
			cp := p.Routes[s.Arg].Plan
			for t := 0; t < cp.NumRounds(); t++ {
				lo, hi := cp.RoundOff[t], cp.RoundOff[t+1]
				for k := lo; k < hi; k++ {
					if !defined[off[cp.From[k]]+int64(cp.SrcSlot[k])] {
						return fmt.Errorf("%w: step %d, round %d: node %d sends slot %d", ErrUseBeforeDef, i, t, cp.From[k], cp.SrcSlot[k])
					}
				}
				for k := lo; k < hi; k++ {
					defined[off[cp.To[k]]+int64(cp.DstSlot[k])] = true
				}
			}
		case StepMulAcc:
			for _, pr := range p.Prods[s.Lo:s.Hi] {
				if !*at(pr.A) || !*at(pr.B) {
					return fmt.Errorf("%w: step %d: node %d multiplies slots %d and %d", ErrUseBeforeDef, i, pr.A.Node, pr.A.Slot, pr.B.Slot)
				}
				*at(pr.Dst) = true
			}
		case StepLeaf:
			for _, l := range p.Leaves[s.Lo:s.Hi] {
				area := int(l.Size) * int(l.Size)
				for _, sl := range p.Tables[int(l.Tab)+2*area : int(l.Tab)+3*area] {
					if sl != -1 {
						*at(SlotRef{Node: l.Host, Slot: sl}) = true
					}
				}
			}
		case StepClear:
			for _, r := range p.Clears[s.Lo:s.Hi] {
				*at(r) = false
			}
		}
	}
	return nil
}

// RunProgram runs every step of a finished program and returns the rounds
// counted before step p.Split. A failing route ends the run with the
// program's open phase spans closed, as the map engine's deferred ends close
// its own.
func (x *Exec) RunProgram(p *Program) (split int, err error) {
	if p.N != x.N {
		return 0, fmt.Errorf("lbm: program for %d computers on a %d-computer executor", p.N, x.N)
	}
	if p.field && x.field == nil {
		return 0, fmt.Errorf("lbm: program needs a field, ring %s is not one", x.R.Name())
	}
	if need := 3 * p.leafArea; len(x.leaf) < need {
		x.leaf = make([]ring.Value, need)
	}
	depth := 0
	for i, s := range p.Steps {
		if i == p.Split {
			split = x.stats.Rounds
		}
		switch s.Kind {
		case StepRoute:
			if err := x.RunChained(p.chains[s.Arg], int(p.pos[s.Arg])); err != nil {
				for ; depth > 0; depth-- {
					x.EndPhase()
				}
				return 0, fmt.Errorf("%s: %w", p.Labels[p.Routes[s.Arg].Fail], err)
			}
		case StepMulAcc:
			x.mulAcc(p.Prods[s.Lo:s.Hi])
		case StepLeaf:
			for _, l := range p.Leaves[s.Lo:s.Hi] {
				if x.Owns(l.Host) {
					x.runLeaf(p.Tables, l)
				}
			}
		case StepClear:
			for _, r := range p.Clears[s.Lo:s.Hi] {
				x.ClearSlot(r)
			}
		case StepBegin:
			depth++
			x.BeginPhase(p.Labels[s.Arg])
		case StepEnd:
			depth--
			x.EndPhase()
		case StepMark:
			x.Mark(p.Labels[s.Arg])
		case StepCounter:
			if x.collector == nil {
				continue
			}
			for _, c := range p.Counts[s.Lo:s.Hi] {
				if c.Host < 0 || x.Owns(c.Host) {
					x.collector.Counter(p.Labels[s.Arg], c.V)
				}
			}
		}
	}
	if p.Split == len(p.Steps) {
		split = x.stats.Rounds
	}
	return split, nil
}

// mulAcc runs the products at owned hosts, every lane of each through the
// executor's lane scratch.
func (x *Exec) mulAcc(prods []Prod) {
	if x.lanes == 1 {
		for _, pr := range prods {
			if !x.Owns(pr.A.Node) {
				continue
			}
			av := x.MustGetSlot(pr.A)
			bv := x.MustGetSlot(pr.B)
			x.AccSlot(pr.Dst, x.R.Mul(av, bv))
		}
		return
	}
	buf := x.lane
	for _, pr := range prods {
		if !x.Owns(pr.A.Node) {
			continue
		}
		as := x.MustLanes(pr.A)
		bs := x.MustLanes(pr.B)
		for l := range buf {
			buf[l] = x.R.Mul(as[l], bs[l])
		}
		x.AccLanes(pr.Dst, buf)
	}
}

// runLeaf multiplies one leaf block at its host, lane by lane, through the
// executor's leaf scratch: every lane of each present C slot is written, as
// PutLane requires.
func (x *Exec) runLeaf(tables []int32, l Leaf) {
	area := int(l.Size) * int(l.Size)
	tab := tables[l.Tab : int(l.Tab)+3*area]
	ta, tb, tc := tab[:area], tab[area:2*area], tab[2*area:]
	a, b, c := x.leaf[:area], x.leaf[area:2*area], x.leaf[2*area:3*area]
	for lane := 0; lane < x.lanes; lane++ {
		for i := range a {
			a[i], b[i] = 0, 0
			if ta[i] >= 0 {
				if v, ok := x.GetLane(SlotRef{Node: l.Host, Slot: ta[i]}, lane); ok {
					a[i] = v
				}
			}
			if tb[i] >= 0 {
				if v, ok := x.GetLane(SlotRef{Node: l.Host, Slot: tb[i]}, lane); ok {
					b[i] = v
				}
			}
		}
		ring.LocalMul(x.field, a, b, c, int(l.Size))
		for i, sl := range tc {
			if sl >= 0 {
				x.PutLane(SlotRef{Node: l.Host, Slot: sl}, lane, c[i])
			}
		}
	}
}
