// Package fewtri implements Lemma 3.1, the paper's central new tool: a set
// of triangles T with |T| ≤ κn and per-pair multiplicity ≤ m, with inputs
// and outputs spread ≤ d per computer, can be processed in O(κ + d + log m)
// rounds. This removes the factor-2 exponent loss of the prior work's
// second phase (O(d^{2-ε}) instead of O(d^{2-ε/2}) for d^{2-ε}n triangles).
//
// The construction follows §3 exactly:
//
//  1. Virtualization (§3.2). Each I-side node i with t(i) incident
//     triangles is split into ℓ(i) = ⌈t(i)/κ⌉ virtual computers, each
//     handling ≤ κ of i's triangles; virtual computers are assigned
//     round-robin to real computers (O(1) per computer).
//  2. Routing (§3.3), for A and then B: form the array of triples
//     (i, j, i') — "virtual computer i' needs A_ij" — sorted
//     lexicographically and cut into chunks of ≤ κ per real computer. The
//     input owner p(i,j) sends A_ij once to the anchor computer q(i,j)
//     holding the group's first triple (an O(d+κ)-round h-relation); the
//     value spreads along the group's computer range by parallel binary
//     broadcast trees (O(log m) rounds, the trees are conflict-free); each
//     triple holder forwards the value to its virtual computer (O(κ)).
//  3. Products and aggregation: each virtual computer multiplies its
//     triangles and pre-aggregates per output position (free local
//     computation); the converse routing runs over triples (i, k, i') with
//     local aggregation at triple holders, parallel binary convergecast
//     trees (O(log m)), and a final O(κ+d) h-relation accumulating each
//     total into the computer that must report X_ik.
package fewtri

import (
	"fmt"
	"sort"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/ring"
	"lbmm/internal/routing"
)

// Job is a preprocessed Lemma 3.1 execution.
type Job struct {
	// Kappa is the per-virtual-computer triangle budget actually used.
	Kappa int
	// VirtualNodes is |V'|, the number of I-side virtual computers.
	VirtualNodes int

	plans    []*lbm.Plan
	products []prodGroup
	cleanup  []hostKey
}

type hostKey struct {
	host lbm.NodeID
	key  lbm.Key
}

// prodGroup is the free local work of one virtual computer: multiply each
// triangle's pair and accumulate into the per-(i,k) partial key.
type prodGroup struct {
	host lbm.NodeID
	tris []graph.Triangle
	vid  int32
}

// aggSeq is the Seq used for the per-triple-holder aggregated partials
// (distinct from per-virtual-node partial keys, which use the vnode id).
const aggSeq = -1

// Plan preprocesses the processing of tris under Lemma 3.1. kappa ≤ 0
// selects the natural budget ⌈3|T|/n⌉ (so that |V'| ≤ 2n). The layout maps
// inputs and outputs to computers; outputs must be zero-initialized before
// Run.
func Plan(n int, l *lbm.Layout, tris []graph.Triangle, kappa int) (*Job, error) {
	if kappa <= 0 {
		kappa = (3*len(tris) + n - 1) / n
		if kappa == 0 {
			kappa = 1
		}
	}
	job := &Job{Kappa: kappa}
	if len(tris) == 0 {
		return job, nil
	}

	// --- Virtualization: split each I-node into chunks of ≤ κ triangles.
	// vnodeOf[t] is the virtual computer of triangle index t.
	order := append([]graph.Triangle(nil), tris...)
	graph.SortTriangles(order)
	vnodeOf := make([]int32, len(order))
	vnodeHost := []lbm.NodeID{}
	count := 0 // triangles assigned to the current vnode
	var curI int32 = -1
	for idx, t := range order {
		if t.I != curI || count == kappa {
			// Open a new virtual computer, assigned round-robin.
			vnodeHost = append(vnodeHost, lbm.NodeID(len(vnodeHost)%n))
			curI = t.I
			count = 0
		}
		vnodeOf[idx] = int32(len(vnodeHost) - 1)
		count++
	}
	job.VirtualNodes = len(vnodeHost)

	// Local product tasks per virtual computer.
	prodByVnode := make([][]graph.Triangle, len(vnodeHost))
	for idx, t := range order {
		prodByVnode[vnodeOf[idx]] = append(prodByVnode[vnodeOf[idx]], t)
	}
	for v, ts := range prodByVnode {
		job.products = append(job.products, prodGroup{host: vnodeHost[v], tris: ts, vid: int32(v)})
	}

	// --- Input routing for A and B.
	planA, cleanA, err := planInputRouting(n, kappa, order, vnodeOf, vnodeHost,
		func(t graph.Triangle) (int32, int32) { return t.I, t.J },
		func(i, j int32) (lbm.NodeID, lbm.Key) { return l.OwnerA(i, j), lbm.AKey(i, j) })
	if err != nil {
		return nil, err
	}
	planB, cleanB, err := planInputRouting(n, kappa, order, vnodeOf, vnodeHost,
		func(t graph.Triangle) (int32, int32) { return t.J, t.K },
		func(j, k int32) (lbm.NodeID, lbm.Key) { return l.OwnerB(j, k), lbm.BKey(j, k) })
	if err != nil {
		return nil, err
	}
	job.plans = append(job.plans, planA...)
	job.plans = append(job.plans, planB...)
	job.cleanup = append(job.cleanup, cleanA...)
	job.cleanup = append(job.cleanup, cleanB...)

	// --- Output routing: triples (i, k, i') deduplicated, sorted by (i,k).
	outPlans, outClean := planOutputRouting(n, kappa, order, vnodeOf, vnodeHost, l)
	job.plans = append(job.plans, outPlans...)
	job.cleanup = append(job.cleanup, outClean...)
	return job, nil
}

// triple is one entry of a §3.3 routing array.
type triple struct {
	a, b  int32 // the pair (sorted on)
	vnode int32
}

// planInputRouting builds the three §3.3 steps for one input matrix:
// owner → anchor h-relation, anchor broadcast trees, triple-holder → virtual
// computer h-relation.
func planInputRouting(n, kappa int, order []graph.Triangle, vnodeOf []int32, vnodeHost []lbm.NodeID,
	pairOf func(graph.Triangle) (int32, int32),
	ownerOf func(a, b int32) (lbm.NodeID, lbm.Key)) ([]*lbm.Plan, []hostKey, error) {

	// Deduplicated triples (a, b, vnode).
	seen := map[triple]struct{}{}
	var triples []triple
	for idx, t := range order {
		a, b := pairOf(t)
		tr := triple{a: a, b: b, vnode: vnodeOf[idx]}
		if _, dup := seen[tr]; dup {
			continue
		}
		seen[tr] = struct{}{}
		triples = append(triples, tr)
	}
	sort.Slice(triples, func(x, y int) bool {
		if triples[x].a != triples[y].a {
			return triples[x].a < triples[y].a
		}
		if triples[x].b != triples[y].b {
			return triples[x].b < triples[y].b
		}
		return triples[x].vnode < triples[y].vnode
	})

	// Chunk the array over the computers, ≤ κ triples each.
	per := (len(triples) + n - 1) / n
	if per > kappa {
		// The lemma guarantees |T| ≤ κn; more triples than κn means the
		// caller picked κ too small.
		per = kappa
		if per*n < len(triples) {
			return nil, nil, fmt.Errorf("fewtri: %d triples exceed κn = %d·%d", len(triples), kappa, n)
		}
	}
	holder := func(idx int) lbm.NodeID { return lbm.NodeID(idx / per) }

	var cleanup []hostKey

	// Step 1: owner → anchor.
	var anchorMsgs []routing.Msg
	groupStart := 0
	type span struct {
		a, b     int32
		from, to int // triple index range [from, to)
	}
	var spans []span
	for idx := 1; idx <= len(triples); idx++ {
		if idx == len(triples) || triples[idx].a != triples[groupStart].a || triples[idx].b != triples[groupStart].b {
			spans = append(spans, span{a: triples[groupStart].a, b: triples[groupStart].b, from: groupStart, to: idx})
			groupStart = idx
		}
	}
	for _, sp := range spans {
		owner, key := ownerOf(sp.a, sp.b)
		anchor := holder(sp.from)
		anchorMsgs = append(anchorMsgs, routing.Msg{From: owner, To: anchor, Src: key, Dst: key, Op: lbm.OpSet})
		if anchor != owner {
			cleanup = append(cleanup, hostKey{anchor, key})
		}
	}
	step1 := routing.Schedule(anchorMsgs, routing.Auto)

	// Step 2: spread along each group's computer range by broadcast trees.
	var groups []routing.Group
	for _, sp := range spans {
		first := holder(sp.from)
		last := holder(sp.to - 1)
		if first == last {
			continue
		}
		_, key := ownerOf(sp.a, sp.b)
		nodes := make([]lbm.NodeID, 0, int(last-first)+1)
		for c := first; c <= last; c++ {
			nodes = append(nodes, c)
			if c != first {
				owner, _ := ownerOf(sp.a, sp.b)
				if c != owner {
					cleanup = append(cleanup, hostKey{c, key})
				}
			}
		}
		groups = append(groups, routing.Group{Nodes: nodes, Key: key})
	}
	step2 := routing.BroadcastPlan(groups)

	// Step 3: triple holder → virtual computer host.
	var fwd []routing.Msg
	for idx, tr := range triples {
		_, key := ownerOf(tr.a, tr.b)
		dst := vnodeHost[tr.vnode]
		src := holder(idx)
		fwd = append(fwd, routing.Msg{From: src, To: dst, Src: key, Dst: key, Op: lbm.OpSet})
		owner, _ := ownerOf(tr.a, tr.b)
		if dst != owner {
			cleanup = append(cleanup, hostKey{dst, key})
		}
	}
	step3 := routing.Schedule(fwd, routing.Auto)

	return []*lbm.Plan{step1, step2, step3}, cleanup, nil
}

// planOutputRouting builds the converse of the input routing for the
// products: virtual computer → triple holder (with local aggregation),
// convergecast trees, anchor → output owner.
func planOutputRouting(n, kappa int, order []graph.Triangle, vnodeOf []int32, vnodeHost []lbm.NodeID,
	l *lbm.Layout) ([]*lbm.Plan, []hostKey) {

	seen := map[triple]struct{}{}
	var triples []triple
	for idx, t := range order {
		tr := triple{a: t.I, b: t.K, vnode: vnodeOf[idx]}
		if _, dup := seen[tr]; dup {
			continue
		}
		seen[tr] = struct{}{}
		triples = append(triples, tr)
	}
	sort.Slice(triples, func(x, y int) bool {
		if triples[x].a != triples[y].a {
			return triples[x].a < triples[y].a
		}
		if triples[x].b != triples[y].b {
			return triples[x].b < triples[y].b
		}
		return triples[x].vnode < triples[y].vnode
	})
	per := (len(triples) + n - 1) / n
	if per < 1 {
		per = 1
	}
	holder := func(idx int) lbm.NodeID { return lbm.NodeID(idx / per) }

	var cleanup []hostKey

	// Step 1: route each virtual computer's pre-aggregated partial to its
	// triple holder, accumulating co-located partials on arrival.
	var route []routing.Msg
	for idx, tr := range triples {
		src := lbm.PKey(tr.a, tr.b, tr.vnode)
		dst := lbm.PKey(tr.a, tr.b, aggSeq)
		route = append(route, routing.Msg{
			From: vnodeHost[tr.vnode], To: holder(idx),
			Src: src, Dst: dst, Op: lbm.OpAcc,
		})
		cleanup = append(cleanup, hostKey{vnodeHost[tr.vnode], src})
		cleanup = append(cleanup, hostKey{holder(idx), dst})
	}
	step1 := routing.Schedule(route, routing.Auto)

	// Step 2: convergecast each (i,k) group's partials into its anchor.
	var groups []routing.Group
	groupStart := 0
	type span struct {
		a, b     int32
		from, to int
	}
	var spans []span
	for idx := 1; idx <= len(triples); idx++ {
		if idx == len(triples) || triples[idx].a != triples[groupStart].a || triples[idx].b != triples[groupStart].b {
			spans = append(spans, span{a: triples[groupStart].a, b: triples[groupStart].b, from: groupStart, to: idx})
			groupStart = idx
		}
	}
	for _, sp := range spans {
		first := holder(sp.from)
		last := holder(sp.to - 1)
		if first == last {
			continue
		}
		nodes := make([]lbm.NodeID, 0, int(last-first)+1)
		for c := first; c <= last; c++ {
			nodes = append(nodes, c)
		}
		groups = append(groups, routing.Group{Nodes: nodes, Key: lbm.PKey(sp.a, sp.b, aggSeq)})
	}
	step2 := routing.ConvergecastPlan(groups)

	// Step 3: anchor → output owner, accumulated into X.
	var final []routing.Msg
	for _, sp := range spans {
		anchor := holder(sp.from)
		owner := l.OwnerX(sp.a, sp.b)
		final = append(final, routing.Msg{
			From: anchor, To: owner,
			Src: lbm.PKey(sp.a, sp.b, aggSeq), Dst: lbm.XKey(sp.a, sp.b), Op: lbm.OpAcc,
		})
	}
	step3 := routing.Schedule(final, routing.Auto)

	return []*lbm.Plan{step1, step2, step3}, cleanup
}

// Run executes the job: input routing plans, the free local products, then
// the output routing plans, and finally cleans up all staged copies.
func Run(m *lbm.Machine, job *Job) error {
	// plans layout: [A1 A2 A3 B1 B2 B3 out1 out2 out3]; the products happen
	// between B3 and out1.
	if len(job.plans) == 0 {
		return nil
	}
	if len(job.plans) != 9 {
		return fmt.Errorf("fewtri: internal error: %d plans", len(job.plans))
	}
	m.BeginPhase("lemma31")
	defer m.EndPhase()
	m.Counter("kappa", float64(job.Kappa))
	m.Counter("virtual_nodes", float64(job.VirtualNodes))
	runStep := func(i int, p *lbm.Plan, what string) error {
		m.Mark(labels[i])
		m.BeginPhase(phases[i])
		err := m.Run(p)
		m.EndPhase()
		if err != nil {
			return fmt.Errorf("fewtri %s routing: %w", what, err)
		}
		return nil
	}
	for i, p := range job.plans[:6] {
		if err := runStep(i, p, "input"); err != nil {
			return err
		}
	}
	m.BeginPhase("products")
	for _, pg := range job.products {
		if !m.Owns(pg.host) {
			continue
		}
		m.Counter("triangles", float64(len(pg.tris)))
		for _, t := range pg.tris {
			av := m.MustGet(pg.host, lbm.AKey(t.I, t.J))
			bv := m.MustGet(pg.host, lbm.BKey(t.J, t.K))
			m.Acc(pg.host, lbm.PKey(t.I, t.K, pg.vid), m.R.Mul(av, bv))
		}
	}
	m.EndPhase()
	for i, p := range job.plans[6:] {
		if err := runStep(6+i, p, "output"); err != nil {
			return err
		}
	}
	for _, ck := range job.cleanup {
		m.Del(ck.host, ck.key)
	}
	return nil
}

// compiledProd is one triangle product lowered to arena addressing:
// dst += a*b.
type compiledProd struct {
	a, b, dst lbm.SlotRef
}

// CompiledJob is a Job lowered to the slot-addressed executable form.
type CompiledJob struct {
	kappa        int
	virtualNodes int
	plans        []*lbm.CompiledPlan
	// in and out are the two runs of plans nothing but phase marks separates
	// — the input routing (plans 0–5) and the output routing (plans 6–8),
	// with the products between them — declared to the executor as chains so
	// their rounds can share exchanges across plan boundaries.
	in, out lbm.Chain
	// prods keeps the per-virtual-computer grouping so counter replay
	// matches the map engine's one Counter("triangles") per group.
	prods   [][]compiledProd
	cleanup []lbm.SlotRef
}

// Compile lowers a job into the shared slot space.
func Compile(sp *lbm.SlotSpace, job *Job) (*CompiledJob, error) {
	cj := &CompiledJob{kappa: job.Kappa, virtualNodes: job.VirtualNodes}
	if len(job.plans) == 0 {
		return cj, nil
	}
	if len(job.plans) != 9 {
		return nil, fmt.Errorf("fewtri: internal error: %d plans", len(job.plans))
	}
	for i, p := range job.plans[:6] {
		cp, err := lbm.CompileInto(sp, p)
		if err != nil {
			return nil, fmt.Errorf("fewtri: compile input plan %d: %w", i, err)
		}
		cj.plans = append(cj.plans, cp)
	}
	for _, pg := range job.products {
		prods := make([]compiledProd, 0, len(pg.tris))
		for _, t := range pg.tris {
			prods = append(prods, compiledProd{
				a:   sp.Ref(pg.host, lbm.AKey(t.I, t.J)),
				b:   sp.Ref(pg.host, lbm.BKey(t.J, t.K)),
				dst: sp.Ref(pg.host, lbm.PKey(t.I, t.K, pg.vid)),
			})
		}
		cj.prods = append(cj.prods, prods)
	}
	for i, p := range job.plans[6:] {
		cp, err := lbm.CompileInto(sp, p)
		if err != nil {
			return nil, fmt.Errorf("fewtri: compile output plan %d: %w", 6+i, err)
		}
		cj.plans = append(cj.plans, cp)
	}
	for _, ck := range job.cleanup {
		cj.cleanup = append(cj.cleanup, sp.Ref(ck.host, ck.key))
	}
	cj.link()
	return cj, nil
}

// link declares the job's chains once its nine plans are in place.
func (cj *CompiledJob) link() {
	cj.in.Plans, cj.out.Plans = cj.plans[:6], cj.plans[6:]
}

// phases are the structured phase names of the nine plans, in plan order:
// anchor/spread/forward are §3.3's three input steps, route/aggregate/deliver
// their converses for the outputs. labels are the legacy Mark labels of the
// same plans, kept for the flat Trace view.
var (
	phases = [9]string{
		"A/anchor", "A/spread", "A/forward",
		"B/anchor", "B/spread", "B/forward",
		"out/route", "out/aggregate", "out/deliver",
	}
	labels = [9]string{
		"lemma31:A anchor", "lemma31:A spread", "lemma31:A forward",
		"lemma31:B anchor", "lemma31:B spread", "lemma31:B forward",
		"lemma31:out route", "lemma31:out reduce", "lemma31:out deliver",
	}
)

// AddExchanges appends the job's rounds-versus-exchanges rows, one per
// routing plan, to the report.
func (cj *CompiledJob) AddExchanges(rep *lbm.ExchangeReport) {
	if cj == nil || len(cj.plans) == 0 {
		return
	}
	rep.AddChain(&cj.in, phases[:6]...)
	rep.AddChain(&cj.out, phases[6:]...)
}

// MemoryBytes estimates the resident size of the compiled job.
func (cj *CompiledJob) MemoryBytes() int64 {
	if cj == nil {
		return 0
	}
	var n int64
	for _, cp := range cj.plans {
		n += cp.MemoryBytes()
	}
	for _, prods := range cj.prods {
		n += int64(len(prods)) * 24
	}
	return n + int64(len(cj.cleanup))*8
}

// AddNodeLoads accumulates the job's per-node real-message loads over every
// compiled routing plan (local triangle products move no messages).
func (cj *CompiledJob) AddNodeLoads(send, recv []int64) {
	if cj == nil {
		return
	}
	for _, cp := range cj.plans {
		cp.AddNodeLoads(send, recv)
	}
}

// RunCompiled executes a compiled job, mirroring Run phase for phase.
func RunCompiled(x *lbm.Exec, cj *CompiledJob) error {
	if len(cj.plans) == 0 {
		return nil
	}
	x.BeginPhase("lemma31")
	defer x.EndPhase()
	x.Counter("kappa", float64(cj.kappa))
	x.Counter("virtual_nodes", float64(cj.virtualNodes))
	// runChain runs one of the job's two chains, plan by plan, with the
	// marks and phase spans of plans[first:] around each.
	runChain := func(c *lbm.Chain, first int, what string) error {
		for i := range c.Plans {
			x.Mark(labels[first+i])
			x.BeginPhase(phases[first+i])
			err := x.RunChained(c, i)
			x.EndPhase()
			if err != nil {
				return fmt.Errorf("fewtri %s routing: %w", what, err)
			}
		}
		return nil
	}
	if err := runChain(&cj.in, 0, "input"); err != nil {
		return err
	}
	x.BeginPhase("products")
	if K := x.Lanes(); K == 1 {
		for _, prods := range cj.prods {
			if len(prods) > 0 && !x.Owns(prods[0].a.Node) {
				continue // whole group lives at one host
			}
			x.Counter("triangles", float64(len(prods)))
			for _, p := range prods {
				av := x.MustGetSlot(p.a)
				bv := x.MustGetSlot(p.b)
				x.AccSlot(p.dst, x.R.Mul(av, bv))
			}
		}
	} else {
		buf := make([]ring.Value, K)
		for _, prods := range cj.prods {
			if len(prods) > 0 && !x.Owns(prods[0].a.Node) {
				continue // whole group lives at one host
			}
			x.Counter("triangles", float64(len(prods)))
			for _, p := range prods {
				as := x.MustLanes(p.a)
				bs := x.MustLanes(p.b)
				for l := 0; l < K; l++ {
					buf[l] = x.R.Mul(as[l], bs[l])
				}
				x.AccLanes(p.dst, buf)
			}
		}
	}
	x.EndPhase()
	if err := runChain(&cj.out, 6, "output"); err != nil {
		return err
	}
	for _, ref := range cj.cleanup {
		x.ClearSlot(ref)
	}
	return nil
}

// Process is the convenience wrapper: plan and run in one call.
func Process(m *lbm.Machine, n int, l *lbm.Layout, tris []graph.Triangle, kappa int) (*Job, error) {
	job, err := Plan(n, l, tris, kappa)
	if err != nil {
		return nil, err
	}
	if err := Run(m, job); err != nil {
		return nil, err
	}
	return job, nil
}
