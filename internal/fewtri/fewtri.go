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
//
// The trivial algorithm of [13] is a job of a second, smaller shape
// (PlanTrivial): one h-relation fetches every triangle's inputs to the
// computer owning its output, whose products accumulate straight into X. A
// third shape (PlanNaive) reconstructs the prior work's phase 2 (SPAA 2022):
// Lemma 3.1's virtualization with naive routing, one h-relation fetching
// every input straight to each virtual computer that needs it and one
// delivering each partial straight to its output owner. All shapes share one
// map engine (Run) and one lowering into a compiled lbm.Program (Emit).
package fewtri

import (
	"fmt"
	"sort"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/routing"
)

// Job is a preprocessed Lemma 3.1, naive or trivial execution.
type Job struct {
	// Kappa is the per-virtual-computer triangle budget actually used.
	Kappa int
	// VirtualNodes is |V'|, the number of I-side virtual computers.
	VirtualNodes int

	// sh is the job's shape; nil for a job with no triangles, which runs
	// nothing.
	sh       *shape
	plans    []*lbm.Plan
	products []prodGroup
	cleanup  []hostKey
}

// shape is the layout of a job: its outer phase, then the phase name and the
// legacy Mark label of each routing plan, of which the first in run before
// the products and the rest after them.
type shape struct {
	phase          string
	phases, labels []string
	in             int
	// dst is the key the product of triangle t at virtual computer vid
	// accumulates into.
	dst func(t graph.Triangle, vid int32) lbm.Key
}

var (
	// lemma31 is §3.3's layout: anchor/spread/forward for A and for B, then
	// route/aggregate/deliver, their converses, for the per-virtual-computer
	// partials.
	lemma31 = shape{
		phase: "lemma31",
		phases: []string{
			"A/anchor", "A/spread", "A/forward",
			"B/anchor", "B/spread", "B/forward",
			"out/route", "out/aggregate", "out/deliver",
		},
		labels: []string{
			"lemma31:A anchor", "lemma31:A spread", "lemma31:A forward",
			"lemma31:B anchor", "lemma31:B spread", "lemma31:B forward",
			"lemma31:out route", "lemma31:out reduce", "lemma31:out deliver",
		},
		in:  6,
		dst: func(t graph.Triangle, vid int32) lbm.Key { return lbm.PKey(t.I, t.K, vid) },
	}
	// trivial is one fetch and no output routing: the products already sit
	// at the output owner.
	trivial = shape{
		phase:  "trivial",
		phases: []string{"fetch"},
		labels: []string{"trivial:fetch"},
		in:     1,
		dst:    func(t graph.Triangle, _ int32) lbm.Key { return lbm.XKey(t.I, t.K) },
	}
	// naive is Lemma 3.1's virtual computers without its trees: one fetch
	// from the input owners, one delivery of the partials to the output
	// owners.
	naive = shape{
		phase:  "naive",
		phases: []string{"fetch", "deliver"},
		labels: []string{"naive:fetch", "naive:deliver"},
		in:     1,
		dst:    lemma31.dst,
	}
)

// Cost is what running the job charges to Stats.Rounds and Stats.Messages,
// summed over its routing plans (lbm.Plan.Cost); the products are free.
func (job *Job) Cost() (rounds, messages int) {
	for _, p := range job.plans {
		r, m := p.Cost()
		rounds += r
		messages += m
	}
	return rounds, messages
}

type hostKey struct {
	host lbm.NodeID
	key  lbm.Key
}

// prodGroup is the free local work of one virtual computer (of one output
// owner in a trivial job): multiply each triangle's pair and accumulate into
// the shape's destination key.
type prodGroup struct {
	host lbm.NodeID
	tris []graph.Triangle
	vid  int32
}

// aggSeq is the Seq used for the per-triple-holder aggregated partials
// (distinct from per-virtual-node partial keys, which use the vnode id).
const aggSeq = -1

// virtual is the §3.2 virtualization of a triangle set: the triangles in
// sorted order, the virtual computer of each and the real host of each
// virtual computer.
type virtual struct {
	order   []graph.Triangle
	vnodeOf []int32
	hosts   []lbm.NodeID
}

// virtualize splits each I-node's triangles into virtual computers of at most
// κ triangles each, assigned round-robin to the n real computers, and records
// the per-virtual-computer products on a new job. kappa ≤ 0 selects the
// natural budget ⌈3|T|/n⌉ (so that |V'| ≤ 2n).
func virtualize(n int, tris []graph.Triangle, kappa int) (*Job, *virtual) {
	if kappa <= 0 {
		kappa = (3*len(tris) + n - 1) / n
		if kappa == 0 {
			kappa = 1
		}
	}
	job := &Job{Kappa: kappa}
	v := &virtual{order: append([]graph.Triangle(nil), tris...)}
	graph.SortTriangles(v.order)
	v.vnodeOf = make([]int32, len(v.order))
	count := 0 // triangles assigned to the current vnode
	var curI int32 = -1
	for idx, t := range v.order {
		if t.I != curI || count == kappa {
			// Open a new virtual computer, assigned round-robin.
			v.hosts = append(v.hosts, lbm.NodeID(len(v.hosts)%n))
			curI = t.I
			count = 0
		}
		v.vnodeOf[idx] = int32(len(v.hosts) - 1)
		count++
	}
	job.VirtualNodes = len(v.hosts)

	// Local product tasks per virtual computer.
	prodByVnode := make([][]graph.Triangle, len(v.hosts))
	for idx, t := range v.order {
		prodByVnode[v.vnodeOf[idx]] = append(prodByVnode[v.vnodeOf[idx]], t)
	}
	for vid, ts := range prodByVnode {
		job.products = append(job.products, prodGroup{host: v.hosts[vid], tris: ts, vid: int32(vid)})
	}
	return job, v
}

// Plan preprocesses the processing of tris under Lemma 3.1. kappa ≤ 0
// selects the natural budget ⌈3|T|/n⌉ (so that |V'| ≤ 2n). The layout maps
// inputs and outputs to computers; outputs must be zero-initialized before
// Run.
func Plan(n int, l *lbm.Layout, tris []graph.Triangle, kappa int) (*Job, error) {
	job, v := virtualize(n, tris, kappa)
	if len(tris) == 0 {
		return job, nil
	}

	// --- Input routing for A and B.
	planA, cleanA, err := planInputRouting(n, job.Kappa, v.order, v.vnodeOf, v.hosts,
		func(t graph.Triangle) (int32, int32) { return t.I, t.J },
		func(i, j int32) (lbm.NodeID, lbm.Key) { return l.OwnerA(i, j), lbm.AKey(i, j) })
	if err != nil {
		return nil, err
	}
	planB, cleanB, err := planInputRouting(n, job.Kappa, v.order, v.vnodeOf, v.hosts,
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
	outPlans, outClean := planOutputRouting(n, job.Kappa, v.order, v.vnodeOf, v.hosts, l)
	job.plans = append(job.plans, outPlans...)
	job.cleanup = append(job.cleanup, outClean...)
	job.sh = &lemma31
	return job, nil
}

// PlanNaive preprocesses the prior work's naive phase 2 (SPAA 2022,
// arXiv 2203.01297, as reconstructed here): Lemma 3.1's virtual computers,
// but each input travels straight from its owner to every virtual computer
// that needs it (a hot value is re-sent once per consumer), and each
// per-virtual-computer partial travels straight to its output owner. On
// skewed instances the input and output owners become serial bottlenecks,
// the effect Lemma 3.1's anchors and trees remove. kappa is as in Plan; the
// naive routing has no κn precondition.
func PlanNaive(n int, l *lbm.Layout, tris []graph.Triangle, kappa int) *Job {
	job, v := virtualize(n, tris, kappa)
	if len(tris) == 0 {
		return job
	}
	// Fetch: one message per (virtual computer, input element).
	type need struct {
		vnode int32
		key   lbm.Key
	}
	seen := map[need]bool{}
	var fetch []routing.Msg
	add := func(vid int32, from lbm.NodeID, key lbm.Key) {
		nd := need{vid, key}
		if seen[nd] {
			return
		}
		seen[nd] = true
		host := v.hosts[vid]
		fetch = append(fetch, routing.Msg{From: from, To: host, Src: key, Dst: key, Op: lbm.OpSet})
		if from != host {
			job.cleanup = append(job.cleanup, hostKey{host, key})
		}
	}
	for idx, t := range v.order {
		add(v.vnodeOf[idx], l.OwnerA(t.I, t.J), lbm.AKey(t.I, t.J))
		add(v.vnodeOf[idx], l.OwnerB(t.J, t.K), lbm.BKey(t.J, t.K))
	}
	// Deliver: each partial straight to its output owner, ordered by sender,
	// receiver, then partial key.
	done := map[lbm.Key]bool{}
	var deliver []routing.Msg
	for idx, t := range v.order {
		vid := v.vnodeOf[idx]
		src := lbm.PKey(t.I, t.K, vid)
		if done[src] {
			continue
		}
		done[src] = true
		deliver = append(deliver, routing.Msg{From: v.hosts[vid], To: l.OwnerX(t.I, t.K), Src: src, Dst: lbm.XKey(t.I, t.K), Op: lbm.OpAcc})
		job.cleanup = append(job.cleanup, hostKey{v.hosts[vid], src})
	}
	sort.Slice(deliver, func(x, y int) bool {
		a, b := deliver[x], deliver[y]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Src.I != b.Src.I {
			return a.Src.I < b.Src.I
		}
		if a.Src.J != b.Src.J {
			return a.Src.J < b.Src.J
		}
		return a.Src.Seq < b.Src.Seq
	})
	job.plans = []*lbm.Plan{routing.Schedule(fetch, routing.Auto), routing.Schedule(deliver, routing.Auto)}
	job.sh = &naive
	return job
}

// PlanTrivial preprocesses the trivial algorithm: every triangle is processed
// at the computer owning its output element, after one h-relation fetches
// its inputs there. The h-relation's degree is the per-node triangle count,
// so this is O(d²) rounds on uniformly sparse instances.
func PlanTrivial(l *lbm.Layout, tris []graph.Triangle) *Job {
	job := &Job{}
	if len(tris) == 0 {
		return job
	}
	type fetch struct {
		to  lbm.NodeID
		key lbm.Key
	}
	seen := map[fetch]bool{}
	var msgs []routing.Msg
	add := func(from, to lbm.NodeID, key lbm.Key) {
		f := fetch{to, key}
		if seen[f] {
			return
		}
		seen[f] = true
		msgs = append(msgs, routing.Msg{From: from, To: to, Src: key, Dst: key, Op: lbm.OpSet})
		if from != to {
			job.cleanup = append(job.cleanup, hostKey{to, key})
		}
	}
	// Products are grouped by output owner; within a group the triangles keep
	// their order, so every output accumulates in triangle order.
	byOwner := make([][]graph.Triangle, l.N)
	for _, t := range tris {
		xo := l.OwnerX(t.I, t.K)
		add(l.OwnerA(t.I, t.J), xo, lbm.AKey(t.I, t.J))
		add(l.OwnerB(t.J, t.K), xo, lbm.BKey(t.J, t.K))
		byOwner[xo] = append(byOwner[xo], t)
	}
	for host, ts := range byOwner {
		if len(ts) > 0 {
			job.products = append(job.products, prodGroup{host: lbm.NodeID(host), tris: ts})
		}
	}
	job.plans = []*lbm.Plan{routing.Schedule(msgs, routing.Auto)}
	job.sh = &trivial
	return job
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

// Run executes the job: the input routing plans, the free local products,
// then the output routing plans, and finally cleans up all staged copies.
func Run(m *lbm.Machine, job *Job) error {
	sh := job.sh
	if sh == nil {
		return nil
	}
	m.BeginPhase(sh.phase)
	defer m.EndPhase()
	if sh != &trivial { // a virtualized job reports its budget
		m.Counter("kappa", float64(job.Kappa))
		m.Counter("virtual_nodes", float64(job.VirtualNodes))
	}
	runSteps := func(first int, plans []*lbm.Plan, what string) error {
		for i, p := range plans {
			m.Mark(sh.labels[first+i])
			m.BeginPhase(sh.phases[first+i])
			err := m.Run(p)
			m.EndPhase()
			if err != nil {
				return fmt.Errorf("fewtri %s routing: %w", what, err)
			}
		}
		return nil
	}
	if err := runSteps(0, job.plans[:sh.in], "input"); err != nil {
		return err
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
			m.Acc(pg.host, sh.dst(t, pg.vid), m.R.Mul(av, bv))
		}
	}
	m.EndPhase()
	if err := runSteps(sh.in, job.plans[sh.in:], "output"); err != nil {
		return err
	}
	for _, ck := range job.cleanup {
		m.Del(ck.host, ck.key)
	}
	return nil
}

// Emit lowers a job into the shared slot space and appends it to prog in
// the order Run runs it. The input plans form one chain and the output plans
// another: nothing but marks and phase spans separates the plans of each, so
// their rounds may share exchanges across plan boundaries. A job with no
// triangles appends nothing.
func Emit(prog *lbm.Program, sp *lbm.SlotSpace, job *Job) error {
	sh := job.sh
	if sh == nil {
		return nil
	}
	prog.BeginPhase(sh.phase)
	if sh != &trivial {
		prog.Counter("kappa", float64(job.Kappa))
		prog.Counter("virtual_nodes", float64(job.VirtualNodes))
	}
	route := func(first, last int, what string) error {
		for i := first; i < last; i++ {
			cp, err := lbm.CompileInto(sp, job.plans[i])
			if err != nil {
				return fmt.Errorf("fewtri: compile plan %d: %w", i, err)
			}
			prog.Mark(sh.labels[i])
			prog.BeginPhase(sh.phases[i])
			prog.Route(cp, sh.phases[i], "fewtri "+what+" routing", i > first)
			prog.EndPhase()
		}
		return nil
	}
	if err := route(0, sh.in, "input"); err != nil {
		return err
	}
	prog.BeginPhase("products")
	// The per-group counters go first: a product records nothing, so the
	// span reads as the map engine's, one count per group at its host.
	for _, pg := range job.products {
		prog.CounterAt("triangles", pg.host, float64(len(pg.tris)))
	}
	for _, pg := range job.products {
		for _, t := range pg.tris {
			prog.MulAcc(sp.Ref(pg.host, lbm.AKey(t.I, t.J)), sp.Ref(pg.host, lbm.BKey(t.J, t.K)), sp.Ref(pg.host, sh.dst(t, pg.vid)))
		}
	}
	prog.EndPhase()
	if err := route(sh.in, len(job.plans), "output"); err != nil {
		return err
	}
	for _, ck := range job.cleanup {
		prog.Clear(sp.Ref(ck.host, ck.key))
	}
	prog.EndPhase()
	return nil
}
