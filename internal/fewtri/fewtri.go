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
// delivering each partial straight to its output owner. All shapes write
// their steps once (Emit), to the compiled lbm.Program or to the map oracle:
// the job inside one phase span named after its shape, each routing step
// inside a child span named after its step (A/anchor, …, out/deliver).
package fewtri

import (
	"fmt"
	"slices"
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
	sh *shape
	// routes are the routing steps in run order, one per phase of the shape.
	routes   []route
	products []prodGroup
	cleanup  []hostKey
}

// route is one routing step of a job. An h-relation stays a message set,
// priced from its degrees (routing.Price), until Colour schedules it; a
// broadcast or convergecast tree is a plan from the start.
type route struct {
	msgs []lbm.Send
	plan *lbm.Plan
}

// planned returns the step's plan: its own, or, for an h-relation Colour has
// not scheduled, a fresh schedule of it.
func (r *route) planned() *lbm.Plan {
	if r.plan != nil {
		return r.plan
	}
	return routing.Schedule(r.msgs)
}

// shape is the layout of a job: its outer phase, then the phase name of each
// routing plan, of which the first in run before the products and the rest
// after them.
type shape struct {
	phase  string
	phases []string
	in     int
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
		in:  6,
		dst: func(t graph.Triangle, vid int32) lbm.Key { return lbm.PKey(t.I, t.K, vid) },
	}
	// trivial is one fetch and no output routing: the products already sit
	// at the output owner.
	trivial = shape{
		phase:  "trivial",
		phases: []string{"fetch"},
		in:     1,
		dst:    func(t graph.Triangle, _ int32) lbm.Key { return lbm.XKey(t.I, t.K) },
	}
	// naive is Lemma 3.1's virtual computers without its trees: one fetch
	// from the input owners, one delivery of the partials to the output
	// owners.
	naive = shape{
		phase:  "naive",
		phases: []string{"fetch", "deliver"},
		in:     1,
		dst:    lemma31.dst,
	}
)

// Cost is what running the job charges to Stats.Rounds and Stats.Messages,
// summed over its routing steps as lbm.Plan.Cost counts them; the products
// are free. A tree or a scheduled h-relation is read off its plan. An
// h-relation Colour has not scheduled is priced from its degrees, which
// colours nothing unless routing.Schedule would split it by Euler, whose rounds
// only a (discarded) schedule tells.
func (job *Job) Cost() (rounds, messages int) {
	for i := range job.routes {
		rt := &job.routes[i]
		r, m, exact := 0, 0, false
		if rt.plan == nil {
			r, m, exact = routing.Price(rt.msgs)
		}
		if !exact {
			r, m = rt.planned().Cost()
		}
		rounds += r
		messages += m
	}
	return rounds, messages
}

// Colour schedules every h-relation of the job that is still a message set,
// so that Emit and Cost read its plan and nothing colours it again. A
// job is planned uncoloured, to be priced; the one a caller keeps is
// coloured before it runs or lowers, and is read-only from then on. An
// uncoloured job emits all the same, colouring afresh each time.
func (job *Job) Colour() {
	for i := range job.routes {
		if rt := &job.routes[i]; rt.plan == nil {
			rt.plan = routing.Schedule(rt.msgs)
			rt.msgs = nil
		}
	}
}

type hostKey struct {
	host lbm.NodeID
	key  lbm.Key
}

// Extent returns how many local products the job's Emit writes, and how many
// copies it stages away from their owners and clears after its run, a
// repeat counted as often as it is cleared: about the keys its lowering
// indexes beyond the loaded cells.
func (job *Job) Extent() (products, staged int) {
	for _, pg := range job.products {
		products += len(pg.tris)
	}
	return products, len(job.cleanup)
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
// (i, j, k) order with their cell positions, the virtual computer of each
// and the real host of each virtual computer.
type virtual struct {
	order   []graph.Triangle
	pos     []graph.Pos
	vnodeOf []int32
	hosts   []lbm.NodeID
}

// virtualize splits each I-node's triangles into virtual computers of at most
// κ triangles each, assigned round-robin to the n real computers, and
// returns the budget used. kappa ≤ 0 selects the natural budget ⌈3|T|/n⌉
// (so that |V'| ≤ 2n). tris must be in (i, j, k) order, as the triangle walk
// lists them (graph.Instance.TrianglesLive) and any subsequence of that
// list keeps them, with pos their cell positions.
func virtualize(n int, tris []graph.Triangle, pos []graph.Pos, kappa int) (int, *virtual) {
	if kappa <= 0 {
		kappa = (3*len(tris) + n - 1) / n
		if kappa == 0 {
			kappa = 1
		}
	}
	if len(pos) != len(tris) || !slices.IsSortedFunc(tris, graph.Compare) {
		panic("fewtri: triangles out of (i, j, k) order or without their positions")
	}
	v := &virtual{order: tris, pos: pos, vnodeOf: make([]int32, len(tris))}
	// No I-node opens more virtual computers than it has triangles.
	v.hosts = make([]lbm.NodeID, 0, len(tris))
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
	return kappa, v
}

// newJob returns a job of the virtualized triangles v with budget kappa,
// holding the per-virtual-computer products: each one's triangles are a run
// of the sorted order.
func newJob(kappa int, v *virtual) *Job {
	job := &Job{Kappa: kappa, VirtualNodes: len(v.hosts)}
	job.products = make([]prodGroup, 0, len(v.hosts))
	start := 0
	for idx := 1; idx <= len(v.order); idx++ {
		if idx == len(v.order) || v.vnodeOf[idx] != v.vnodeOf[start] {
			vid := v.vnodeOf[start]
			job.products = append(job.products, prodGroup{host: v.hosts[vid], tris: v.order[start:idx:idx], vid: vid})
			start = idx
		}
	}
	return job
}

// Plan preprocesses the processing of tris under Lemma 3.1. tris are in
// (i, j, k) order and pos are their cell positions (virtualize). kappa ≤ 0
// selects the natural budget ⌈3|T|/n⌉ (so that |V'| ≤ 2n). The layout maps
// inputs and outputs to computers; outputs must be zero-initialized before
// Run.
func Plan(n int, l *lbm.Layout, tris []graph.Triangle, pos []graph.Pos, kappa int) (*Job, error) {
	kappa, v := virtualize(n, tris, pos, kappa)
	job := newJob(kappa, v)
	if len(tris) == 0 {
		return job, nil
	}
	// An input array sends at most one anchor and one forward per triple,
	// the output array at most one partial and one delivery: 6|T| messages.
	ps := &planSink{routes: make([]route, 0, len(lemma31.phases)), msgs: make([]lbm.Send, 0, 6*len(tris))}
	if err := routeLemma31(ps, n, kappa, l, v); err != nil {
		return nil, err
	}
	job.routes, job.cleanup = ps.routes, ps.cleanup
	job.sh = &lemma31
	return job, nil
}

// Price returns what Plan(n, l, tris, pos, kappa) followed by Job.Cost returns,
// and the error Plan returns, without building the job: the same walk of
// the §3.3 routing arrays tallies each h-relation's per-computer degrees
// (routing.Degrees) and each tree step's group sizes (routing.TreeCost)
// where Plan writes messages and groups. exact is false where an h-relation
// is so large that routing.Schedule splits it by Euler, whose rounds only its
// colouring tells; rounds is then a lower bound, and only planning the job
// and calling Cost tells the price.
func Price(n int, l *lbm.Layout, tris []graph.Triangle, pos []graph.Pos, kappa int) (rounds, messages int, exact bool, err error) {
	if len(tris) == 0 {
		return 0, 0, true, nil
	}
	kappa, v := virtualize(n, tris, pos, kappa)
	ps := &priceSink{deg: routing.NewDegrees(n), exact: true}
	if err := routeLemma31(ps, n, kappa, l, v); err != nil {
		return 0, 0, false, err
	}
	return ps.rounds, ps.messages, ps.exact, nil
}

// PlanNaive preprocesses the prior work's naive phase 2 (SPAA 2022,
// arXiv 2203.01297, as reconstructed here): Lemma 3.1's virtual computers,
// but each input travels straight from its owner to every virtual computer
// that needs it (a hot value is re-sent once per consumer), and each
// per-virtual-computer partial travels straight to its output owner. On
// skewed instances the input and output owners become serial bottlenecks,
// the effect Lemma 3.1's anchors and trees remove. tris, pos and kappa are
// as in Plan; the naive routing has no κn precondition.
func PlanNaive(n int, l *lbm.Layout, tris []graph.Triangle, pos []graph.Pos, kappa int) *Job {
	kappa, v := virtualize(n, tris, pos, kappa)
	job := newJob(kappa, v)
	if len(tris) == 0 {
		return job
	}
	// Fetch: one message per (virtual computer, input element).
	type need struct {
		vnode int32
		key   lbm.Key
	}
	seen := map[need]bool{}
	var fetch []lbm.Send
	add := func(vid int32, from lbm.NodeID, key lbm.Key) {
		nd := need{vid, key}
		if seen[nd] {
			return
		}
		seen[nd] = true
		host := v.hosts[vid]
		fetch = append(fetch, lbm.Send{From: from, To: host, Src: key, Dst: key, Op: lbm.OpSet})
		if from != host {
			job.cleanup = append(job.cleanup, hostKey{host, key})
		}
	}
	for idx, t := range v.order {
		add(v.vnodeOf[idx], l.A.At(t.I, pos[idx].A), lbm.AKey(t.I, t.J))
		add(v.vnodeOf[idx], l.B.At(t.J, pos[idx].B), lbm.BKey(t.J, t.K))
	}
	// Deliver: each partial straight to its output owner, ordered by sender,
	// receiver, then partial key.
	done := map[lbm.Key]bool{}
	var deliver []lbm.Send
	for idx, t := range v.order {
		vid := v.vnodeOf[idx]
		src := lbm.PKey(t.I, t.K, vid)
		if done[src] {
			continue
		}
		done[src] = true
		deliver = append(deliver, lbm.Send{From: v.hosts[vid], To: l.X.At(t.I, pos[idx].X), Src: src, Dst: lbm.XKey(t.I, t.K), Op: lbm.OpAcc})
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
	job.routes = []route{{msgs: fetch}, {msgs: deliver}}
	job.sh = &naive
	return job
}

// PlanTrivial preprocesses the trivial algorithm: every triangle is processed
// at the computer owning its output element, after one h-relation fetches
// its inputs there. The h-relation's degree is the per-node triangle count,
// so this is O(d²) rounds on uniformly sparse instances. pos are the
// triangles' cell positions, which own each cell (lbm.Owners.At) and tell
// one cell from another.
func PlanTrivial(l *lbm.Layout, tris []graph.Triangle, pos []graph.Pos) *Job {
	job := &Job{}
	if len(tris) == 0 {
		return job
	}
	// One scratch slab: the owners' group bounds (next), the triangles by
	// owner and the fetches each triangle sends.
	scratch := make([]int32, l.N+2*len(tris))
	next, byOwner, sends := scratch[:l.N], scratch[l.N:l.N+len(tris)], scratch[l.N+len(tris):]
	// Products are grouped by output owner, each group a window of one slab,
	// by one counting pass; within a group the triangles keep their order,
	// so every output accumulates in triangle order. next[host] counts the
	// host's triangles, then indexes where its next one goes.
	for idx, t := range tris {
		next[l.X.At(t.I, pos[idx].X)]++
	}
	groups, at := 0, int32(0)
	for host, c := range next {
		if c > 0 {
			groups++
		}
		next[host] = at
		at += c
	}
	for idx, t := range tris {
		xo := l.X.At(t.I, pos[idx].X)
		byOwner[next[xo]] = int32(idx)
		next[xo]++
	}
	// Every triangle fetches its A and then its B input to its output's
	// owner. One fetch per (owner, cell) is sent, the first sight of it, and
	// in first-sight order: the message order is König's edge order. Walking
	// one owner's group at a time, a mark per A and B support position flags
	// the cells that owner fetches already, cleared after the group, and
	// sends marks the fetches each triangle sends: sendA for its A input,
	// sendB for its B input.
	const sendA, sendB = 1, 2
	nnzA := l.A.Sup.NNZ
	fetched := make([]bool, nnzA+l.B.Sup.NNZ)
	sent, staged := 0, 0
	job.products = make([]prodGroup, 0, groups)
	slab := make([]graph.Triangle, len(tris))
	start := int32(0)
	for host, end := range next {
		if end == start {
			continue
		}
		group := byOwner[start:end]
		for q, idx := range group {
			t, p := tris[idx], pos[idx]
			slab[start+int32(q)] = t
			if !fetched[p.A] {
				fetched[p.A], sends[idx] = true, sendA
				sent++
				if l.A.At(t.I, p.A) != lbm.NodeID(host) {
					staged++
				}
			}
			if !fetched[nnzA+int(p.B)] {
				fetched[nnzA+int(p.B)], sends[idx] = true, sends[idx]|sendB
				sent++
				if l.B.At(t.J, p.B) != lbm.NodeID(host) {
					staged++
				}
			}
		}
		for _, idx := range group {
			fetched[pos[idx].A], fetched[nnzA+int(pos[idx].B)] = false, false
		}
		job.products = append(job.products, prodGroup{host: lbm.NodeID(host), tris: slab[start:end:end]})
		start = end
	}
	msgs := make([]lbm.Send, 0, sent)
	job.cleanup = make([]hostKey, 0, staged)
	fetch := func(from, to lbm.NodeID, key lbm.Key) {
		msgs = append(msgs, lbm.Send{From: from, To: to, Src: key, Dst: key, Op: lbm.OpSet})
		if from != to {
			job.cleanup = append(job.cleanup, hostKey{to, key})
		}
	}
	for idx, t := range tris {
		p := pos[idx]
		xo := l.X.At(t.I, p.X)
		if sends[idx]&sendA != 0 {
			fetch(l.A.At(t.I, p.A), xo, lbm.AKey(t.I, t.J))
		}
		if sends[idx]&sendB != 0 {
			fetch(l.B.At(t.J, p.B), xo, lbm.BKey(t.J, t.K))
		}
	}
	job.routes = []route{{msgs: msgs}}
	job.sh = &trivial
	return job
}

// triple is one entry of a §3.3 routing array: virtual computer vnode
// needs the cell (a, b), which lies at support position pos. Positions
// order one support's cells as their pairs do, so the array is sorted on
// them.
type triple struct {
	a, b  int32
	pos   int32
	vnode int32
}

// sink takes §3.3's routing of a job step by step as routeLemma31 walks it:
// the messages of an h-relation step or the groups of a tree step, then the
// step's end; and, as they arise, the staged copies the job clears after
// its run. The planner (planSink) writes them down, the pricer (priceSink)
// counts them.
type sink interface {
	send(m lbm.Send)
	// group adds the computers first … last, holding or summing key, to a
	// tree step.
	group(first, last lbm.NodeID, key lbm.Key)
	clean(host lbm.NodeID, key lbm.Key)
	// hrel ends an h-relation step; tree ends a tree step, a convergecast
	// if converge and a broadcast otherwise.
	hrel()
	tree(converge bool)
}

// routeLemma31 walks §3.3's routing of the virtualized triangles v with
// budget kappa over the layout l into s: the input routing of A, then of B,
// then the output routing, three steps each.
func routeLemma31(s sink, n, kappa int, l *lbm.Layout, v *virtual) error {
	// One slab holds the sorted array and, for B and the output, the array
	// as listed.
	slab := make([]triple, 2*len(v.order))
	triples, listed := slab[:len(v.order)], slab[len(v.order):]
	// A's array (i, j, i') needs no sort: the (i, j, k) order, whose virtual
	// computers only grow, already runs in it.
	for idx, t := range v.order {
		triples[idx] = triple{a: t.I, b: t.J, pos: v.pos[idx].A, vnode: v.vnodeOf[idx]}
	}
	if err := inputRouting(s, n, kappa, slices.Compact(triples), v.hosts, &l.A, lbm.AKey); err != nil {
		return err
	}
	// B's array (j, k, i') and the output's (i, k, i') are listed in that
	// order too and sorted by position.
	count := make([]int32, max(l.B.Sup.NNZ, l.X.Sup.NNZ))
	for idx, t := range v.order {
		listed[idx] = triple{a: t.J, b: t.K, pos: v.pos[idx].B, vnode: v.vnodeOf[idx]}
	}
	err := inputRouting(s, n, kappa, sortedTriples(listed, triples, count[:l.B.Sup.NNZ]), v.hosts, &l.B, lbm.BKey)
	if err != nil {
		return err
	}
	for idx, t := range v.order {
		listed[idx] = triple{a: t.I, b: t.K, pos: v.pos[idx].X, vnode: v.vnodeOf[idx]}
	}
	outputRouting(s, n, sortedTriples(listed, triples, count[:l.X.Sup.NNZ]), v.hosts, &l.X)
	return nil
}

// inputRouting walks the three §3.3 steps for one input matrix over its
// sorted routing array: owner → anchor h-relation, anchor broadcast trees,
// triple-holder → virtual computer h-relation. owners owns the matrix's
// cells and key names them.
func inputRouting(s sink, n, kappa int, triples []triple, vnodeHost []lbm.NodeID,
	owners *lbm.Owners, key func(a, b int32) lbm.Key) error {

	// Chunk the array over the computers, ≤ κ triples each.
	per := (len(triples) + n - 1) / n
	if per > kappa {
		// The lemma guarantees |T| ≤ κn; more triples than κn means the
		// caller picked κ too small.
		per = kappa
		if per*n < len(triples) {
			return fmt.Errorf("fewtri: %d triples exceed κn = %d·%d", len(triples), kappa, n)
		}
	}
	holder := func(idx int) lbm.NodeID { return lbm.NodeID(idx / per) }

	// Step 1: owner → anchor, the holder of each group's first triple.
	for from := 0; from < len(triples); from = spanEnd(triples, from) {
		tr := triples[from]
		owner, k := owners.At(tr.a, tr.pos), key(tr.a, tr.b)
		anchor := holder(from)
		s.send(lbm.Send{From: owner, To: anchor, Src: k, Dst: k, Op: lbm.OpSet})
		if anchor != owner {
			s.clean(anchor, k)
		}
	}
	s.hrel()

	// Step 2: spread along each group's computer range by broadcast trees.
	for from := 0; from < len(triples); {
		to := spanEnd(triples, from)
		if first, last := holder(from), holder(to-1); first != last {
			tr := triples[from]
			owner, k := owners.At(tr.a, tr.pos), key(tr.a, tr.b)
			s.group(first, last, k)
			for c := first + 1; c <= last; c++ {
				if c != owner {
					s.clean(c, k)
				}
			}
		}
		from = to
	}
	s.tree(false)

	// Step 3: triple holder → virtual computer host.
	for idx, tr := range triples {
		owner, k := owners.At(tr.a, tr.pos), key(tr.a, tr.b)
		dst := vnodeHost[tr.vnode]
		s.send(lbm.Send{From: holder(idx), To: dst, Src: k, Dst: k, Op: lbm.OpSet})
		if dst != owner {
			s.clean(dst, k)
		}
	}
	s.hrel()
	return nil
}

// sortedTriples writes the routing array listed, in the order of v.order,
// into sorted by position, then virtual computer, and drops the repeats.
// v.order's virtual computers only grow, so one stable counting pass by
// position sorts it; count is scratch of one entry per support position.
func sortedTriples(listed, sorted []triple, count []int32) []triple {
	clear(count)
	for _, tr := range listed {
		count[tr.pos]++
	}
	// Each position's count becomes its first index: the running sum stays
	// in a register, not in the array.
	at := int32(0)
	for p, c := range count {
		count[p] = at
		at += c
	}
	sorted = sorted[:len(listed)]
	for _, tr := range listed {
		sorted[count[tr.pos]] = tr
		count[tr.pos]++
	}
	return slices.Compact(sorted)
}

// spanEnd returns the end of the group of a sorted routing array that
// starts at from: the index past the last triple sharing its cell.
func spanEnd(triples []triple, from int) int {
	to := from + 1
	for to < len(triples) && triples[to].pos == triples[from].pos {
		to++
	}
	return to
}

// outputRouting walks the converse of the input routing for the products
// over their sorted routing array: virtual computer → triple holder (with
// local aggregation), convergecast trees, anchor → output owner, whom owners
// names.
func outputRouting(s sink, n int, triples []triple, vnodeHost []lbm.NodeID, owners *lbm.Owners) {
	per := max((len(triples)+n-1)/n, 1)
	holder := func(idx int) lbm.NodeID { return lbm.NodeID(idx / per) }

	// Step 1: route each virtual computer's pre-aggregated partial to its
	// triple holder, accumulating co-located partials on arrival.
	for idx, tr := range triples {
		src := lbm.PKey(tr.a, tr.b, tr.vnode)
		dst := lbm.PKey(tr.a, tr.b, aggSeq)
		s.send(lbm.Send{From: vnodeHost[tr.vnode], To: holder(idx), Src: src, Dst: dst, Op: lbm.OpAcc})
		s.clean(vnodeHost[tr.vnode], src)
		s.clean(holder(idx), dst)
	}
	s.hrel()

	// Step 2: convergecast each (i,k) group's partials into its anchor.
	for from := 0; from < len(triples); {
		to := spanEnd(triples, from)
		if first, last := holder(from), holder(to-1); first != last {
			s.group(first, last, lbm.PKey(triples[from].a, triples[from].b, aggSeq))
		}
		from = to
	}
	s.tree(true)

	// Step 3: anchor → output owner, accumulated into X.
	for from := 0; from < len(triples); from = spanEnd(triples, from) {
		tr := triples[from]
		s.send(lbm.Send{
			From: holder(from), To: owners.At(tr.a, tr.pos),
			Src: lbm.PKey(tr.a, tr.b, aggSeq), Dst: lbm.XKey(tr.a, tr.b), Op: lbm.OpAcc,
		})
	}
	s.hrel()
}

// planSink writes a job's routing down: each h-relation as its message set,
// each tree step as its plan, and the staged copies in order.
type planSink struct {
	routes  []route
	msgs    []lbm.Send
	groups  []routing.Group
	cleanup []hostKey
}

func (p *planSink) send(m lbm.Send) { p.msgs = append(p.msgs, m) }

func (p *planSink) group(first, last lbm.NodeID, key lbm.Key) {
	nodes := make([]lbm.NodeID, 0, int(last-first)+1)
	for c := first; c <= last; c++ {
		nodes = append(nodes, c)
	}
	p.groups = append(p.groups, routing.Group{Nodes: nodes, Key: key})
}

func (p *planSink) clean(host lbm.NodeID, key lbm.Key) {
	p.cleanup = append(p.cleanup, hostKey{host, key})
}

func (p *planSink) hrel() {
	p.routes = append(p.routes, route{msgs: slices.Clip(p.msgs)})
	p.msgs = p.msgs[len(p.msgs):]
}

func (p *planSink) tree(converge bool) {
	plan := routing.BroadcastPlan
	if converge {
		plan = routing.ConvergecastPlan
	}
	p.routes = append(p.routes, route{plan: plan(p.groups)})
	p.groups = p.groups[:0]
}

// priceSink counts a job's routing: each h-relation's per-computer degrees
// and each tree step's group sizes, summed into what the job's Cost charges.
type priceSink struct {
	deg              routing.Degrees
	rounds, messages int
	exact            bool
	groups, members  int
	maxGroup         int
}

func (p *priceSink) send(m lbm.Send) { p.deg.Add(m.From, m.To) }

func (p *priceSink) group(first, last lbm.NodeID, _ lbm.Key) {
	size := int(last-first) + 1
	p.groups++
	p.members += size
	p.maxGroup = max(p.maxGroup, size)
}

func (p *priceSink) clean(lbm.NodeID, lbm.Key) {}

func (p *priceSink) hrel() {
	r, m, exact := p.deg.Price()
	p.rounds += r
	p.messages += m
	p.exact = p.exact && exact
	p.deg.Reset()
}

func (p *priceSink) tree(bool) {
	r, m := routing.TreeCost(p.groups, p.members, p.maxGroup)
	p.rounds += r
	p.messages += m
	p.groups, p.members, p.maxGroup = 0, 0, 0
}

// Emit writes the job to e: the input routing plans, the free local
// products, the output routing plans, then the clearing of every staged
// copy. The input plans form one chain and the output plans another:
// nothing but phase spans separates the plans of each, so their
// rounds may share exchanges across plan boundaries. A job with no
// triangles writes nothing.
func Emit(e lbm.Emitter, job *Job) error {
	sh := job.sh
	if sh == nil {
		return nil
	}
	e.BeginPhase(sh.phase)
	if sh != &trivial { // a virtualized job reports its budget
		e.Counter("kappa", float64(job.Kappa))
		e.Counter("virtual_nodes", float64(job.VirtualNodes))
	}
	route := func(first, last int, what string) error {
		for i := first; i < last; i++ {
			e.BeginPhase(sh.phases[i])
			if err := e.Route(job.routes[i].planned(), sh.phases[i], "fewtri "+what+" routing", i > first); err != nil {
				return err
			}
			e.EndPhase()
		}
		return nil
	}
	if err := route(0, sh.in, "input"); err != nil {
		return err
	}
	e.BeginPhase("products")
	// The per-group counters go ahead of every product: a product records
	// nothing, so the span reads the same in either order, and this is the
	// order stored programs hold.
	for _, pg := range job.products {
		e.CounterAt("triangles", pg.host, float64(len(pg.tris)))
	}
	for _, pg := range job.products {
		for _, t := range pg.tris {
			e.MulAcc(pg.host, lbm.AKey(t.I, t.J), lbm.BKey(t.J, t.K), sh.dst(t, pg.vid))
		}
	}
	e.EndPhase()
	if err := route(sh.in, len(job.routes), "output"); err != nil {
		return err
	}
	for _, ck := range job.cleanup {
		e.Clear(ck.host, ck.key)
	}
	e.EndPhase()
	return nil
}
