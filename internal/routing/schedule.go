package routing

import (
	"math/bits"

	"lbmm/internal/lbm"
)

// autoKonigBudget caps the König work E·Δ (colour scans) Schedule accepts.
const autoKonigBudget = 1 << 27

// konigAffordable reports whether Schedule colours e real messages of
// largest degree delta by König: exact Δ-round schedules in O(E·(V+Δ))
// time. Past the budget it splits by Euler: at most 2^⌈log₂ Δ⌉ < 2Δ rounds
// in O(E log Δ) time. Exact schedules avoid the Euler split's rounding,
// which otherwise staircases measured round counts.
func konigAffordable(e, delta int) bool {
	return delta > 0 && e*delta <= autoKonigBudget
}

// Price returns what Schedule(msgs) charges, as lbm.Plan.Cost counts
// it, without colouring anything: the per-computer send and receive degrees
// of the real (From ≠ To) messages decide it (Degrees.Price).
func Price(msgs []lbm.Send) (rounds, messages int, exact bool) {
	d := degreesOf(msgs)
	return d.Price()
}

// degreeMax returns the largest per-computer send and receive
// multiplicities of the real messages of msgs, and their count: the lower
// bound any schedule of them must pay.
func degreeMax(msgs []lbm.Send) (maxSend, maxRecv, remote int) {
	d := degreesOf(msgs)
	return d.maxSend, d.maxRecv, d.remote
}

// Degrees tallies an h-relation one message at a time: the per-computer
// send and receive degrees of its real messages, in tables indexed by
// NodeID − lo, and their count. A pricer that never builds the message set
// (fewtri.Price) keeps one tally for all its h-relations, Reset between
// them.
type Degrees struct {
	lo               lbm.NodeID
	send, recv       []int32
	maxSend, maxRecv int
	remote           int
}

// NewDegrees returns an empty tally of h-relations among the computers
// 0 … n−1.
func NewDegrees(n int) Degrees { return newDegrees(0, n) }

// newDegrees returns an empty tally of h-relations among the computers
// lo … lo+span−1.
func newDegrees(lo lbm.NodeID, span int) Degrees {
	deg := make([]int32, 2*span)
	return Degrees{lo: lo, send: deg[:span:span], recv: deg[span:]}
}

// degreesOf tallies msgs in tables that span exactly their real messages'
// ends.
func degreesOf(msgs []lbm.Send) Degrees {
	lo, span, _ := nodeSpan(msgs)
	d := newDegrees(lo, span)
	for _, m := range msgs {
		d.Add(m.From, m.To)
	}
	return d
}

// Add tallies one message from → to; a local copy (from == to) is free and
// counts nothing.
func (d *Degrees) Add(from, to lbm.NodeID) {
	if from == to {
		return
	}
	s, r := &d.send[from-d.lo], &d.recv[to-d.lo]
	*s++
	*r++
	d.maxSend = max(d.maxSend, int(*s))
	d.maxRecv = max(d.maxRecv, int(*r))
	d.remote++
}

// Price returns what Schedule charges for the messages tallied, as
// lbm.Plan.Cost counts it. messages is their count E. Where Schedule colours
// by König — E·Δ within autoKonigBudget, Δ the largest degree — the
// schedule has exactly Δ rounds (König's theorem: a vertex of degree Δ
// meets every colour), and exact is true; so it is for an h-relation of
// local copies only, which costs nothing. Otherwise Schedule splits by Euler,
// whose round count lies between Δ and 2^⌈log₂ Δ⌉ and is known only once
// coloured: rounds is then Δ, a lower bound, and exact is false.
func (d *Degrees) Price() (rounds, messages int, exact bool) {
	delta := max(d.maxSend, d.maxRecv)
	return delta, d.remote, d.remote == 0 || konigAffordable(d.remote, delta)
}

// Reset empties the tally for the next h-relation.
func (d *Degrees) Reset() {
	clear(d.send)
	clear(d.recv)
	d.maxSend, d.maxRecv, d.remote = 0, 0, 0
}

// nodeSpan returns the count of the real messages of msgs, the smallest
// NodeID lo among their ends and the length of the range [lo, hi] those
// span, so that tables indexed by NodeID−lo cover every sender and receiver.
func nodeSpan(msgs []lbm.Send) (lo lbm.NodeID, span, remote int) {
	var hi lbm.NodeID
	for _, m := range msgs {
		if m.From == m.To {
			continue
		}
		if remote == 0 {
			lo, hi = m.From, m.From
		}
		lo, hi = min(lo, m.From, m.To), max(hi, m.From, m.To)
		remote++
	}
	if remote == 0 {
		return 0, 0, 0
	}
	return lo, int(hi-lo) + 1, remote
}

// Schedule arranges an arbitrary set of messages into rounds that respect
// the one-send/one-receive constraint, using bipartite edge colouring on the
// sender/receiver multigraph: by König where konigAffordable allows, by
// Euler splitting otherwise. The number of rounds is O(S + R) where S and R
// are the maximum per-node send and receive multiplicities — the h-relation
// bound used throughout the paper's §3.3. What a schedule charges is known
// before colouring (Price), so a planner that prices several candidates
// colours only the one it keeps.
//
// Self-messages (From == To) are free local copies; they are all placed in
// the first round.
func Schedule(msgs []lbm.Send) *lbm.Plan { return schedule(msgs, konigAffordable) }

// schedule is Schedule with the backend picked by byKonig(E, Δ), which the
// colouring ablations set to one backend or the other.
func schedule(msgs []lbm.Send, byKonig func(e, delta int) bool) *lbm.Plan {
	h := compact(msgs)
	maxSend, maxRecv, _ := degreeMax(msgs)
	delta := max(maxSend, maxRecv)
	var classes [][]int32
	if byKonig(len(h.edges), delta) {
		classes = konigColor(h.edges, h.nl, h.nr, delta)
	} else {
		classes = eulerColor(h.edges, h.nl, h.nr)
	}

	// Every round is a window of one slab of sends. The local copies lead
	// round 0, or make up the only round when nothing is remote.
	plan := &lbm.Plan{Rounds: make([]lbm.Round, 0, max(len(classes), 1))}
	sends := make([]lbm.Send, 0, len(msgs))
	for _, m := range msgs {
		if m.From == m.To {
			sends = append(sends, m)
		}
	}
	local := len(sends)
	start := 0
	for _, class := range classes {
		for _, ei := range class {
			sends = append(sends, msgs[h.remote[ei]])
		}
		plan.Append(sends[start:len(sends):len(sends)])
		start = len(sends)
	}
	if len(classes) == 0 {
		plan.Append(sends)
	}
	if len(msgs) > 0 {
		plan.Annotate("routing/hrel", map[string]float64{
			"messages":   float64(len(h.remote)),
			"local":      float64(local),
			"delta_send": float64(maxSend),
			"delta_recv": float64(maxRecv),
		})
	}
	return plan
}

// ScheduleRound appends to out one round of messages that all read the
// round's start state — a virtual round of §3.2 mapped onto its hosts, or a
// congested-clique round of §1.5 — lowered as one h-relation (Schedule).
//
// The schedule spans several machine rounds, so a message whose source the
// same round also writes would read a torn value. ScheduleRound keeps the
// round's semantics by snapshotting every such source into a staging key
// (KStage, numbered from 0 per round in order of first use) with a free
// local copy in a round before the deliveries, and sending from the
// snapshot: messages sharing a source share it. It rewrites those messages'
// Src in r, which the caller hands over. Staging keys are overwritten round
// to round; an emitter's ClearStaging drops the leftovers (lbm.Emitter).
func ScheduleRound(out *lbm.Plan, r lbm.Round) {
	written := make(map[nodeKey]struct{}, len(r))
	for _, m := range r {
		written[nodeKey{m.To, m.Dst}] = struct{}{}
	}
	var staging lbm.Round
	slot := map[nodeKey]lbm.Key{}
	for i := range r {
		src := nodeKey{r[i].From, r[i].Src}
		if _, clash := written[src]; !clash {
			continue
		}
		sk, ok := slot[src]
		if !ok {
			sk = lbm.Key{Kind: lbm.KStage, I: int32(len(slot))}
			slot[src] = sk
			staging = append(staging, lbm.Send{From: src.node, To: src.node, Src: src.key, Dst: sk, Op: lbm.OpSet})
		}
		r[i].Src = sk
	}
	out.Append(staging)
	out.Extend(Schedule(r))
}

// nodeKey is a key held at one computer.
type nodeKey struct {
	node lbm.NodeID
	key  lbm.Key
}

// hrel is the real messages of an h-relation laid out for colouring: edge e
// is message remote[e], between sender and receiver indices dense from 0 and
// numbered in order of first appearance.
type hrel struct {
	remote []int32
	edges  []edge
	nl, nr int
}

// compact lays the real messages of msgs out for colouring, numbering their
// senders and receivers through tables indexed by NodeID.
func compact(msgs []lbm.Send) hrel {
	lo, span, remote := nodeSpan(msgs)
	h := hrel{remote: make([]int32, 0, remote), edges: make([]edge, 0, remote)}
	// Per NodeID−lo: sender index+1 and receiver index+1, 0 while unseen.
	tab := make([]int32, 2*span)
	lIdx, rIdx := tab[:span], tab[span:]
	for i, m := range msgs {
		if m.From == m.To {
			continue
		}
		f, t := m.From-lo, m.To-lo
		if lIdx[f] == 0 {
			h.nl++
			lIdx[f] = int32(h.nl)
		}
		if rIdx[t] == 0 {
			h.nr++
			rIdx[t] = int32(h.nr)
		}
		h.remote = append(h.remote, int32(i))
		h.edges = append(h.edges, edge{l: lIdx[f] - 1, r: rIdx[t] - 1})
	}
	return h
}

// ---------------------------------------------------------------------------
// Broadcast and convergecast trees (§3.3's spread and aggregation steps)

// Group is an ordered set of distinct computers cooperating in a broadcast
// or convergecast. Groups passed to the plan builders must be pairwise
// disjoint; they execute in parallel.
type Group struct {
	Nodes []lbm.NodeID
	// Key is the store key the broadcast value lives under (same key at
	// every node), or the per-node partial-sum key for convergecast.
	Key lbm.Key
}

// BroadcastPlan builds a plan in which, for every group, the value held by
// Nodes[0] under Key is spread to all other members by binary doubling:
// round t doubles the informed prefix, so ⌈log₂ |group|⌉ rounds suffice —
// the O(log m) term of Lemma 3.1.
func BroadcastPlan(groups []Group) *lbm.Plan {
	plan := &lbm.Plan{}
	for t := 0; ; t++ {
		stride := 1 << t
		var round lbm.Round
		for _, g := range groups {
			for idx := 0; idx < stride && idx < len(g.Nodes); idx++ {
				dst := idx + stride
				if dst >= len(g.Nodes) {
					continue
				}
				round = append(round, lbm.Send{
					From: g.Nodes[idx], To: g.Nodes[dst],
					Src: g.Key, Dst: g.Key, Op: lbm.OpSet,
				})
			}
		}
		if len(round) == 0 {
			break
		}
		plan.Append(round)
	}
	annotateTreePlan(plan, "routing/broadcast", groups)
	return plan
}

// TreeCost returns what BroadcastPlan or ConvergecastPlan charges, as
// lbm.Plan.Cost counts it, for the given number of groups holding members
// computers in all, the largest of them maxGroup: ⌈log₂ maxGroup⌉ rounds,
// and one real message into (out of) every computer but each group's first,
// since a group's computers are distinct.
func TreeCost(groups, members, maxGroup int) (rounds, messages int) {
	if groups == 0 {
		return 0, 0
	}
	return bits.Len(uint(maxGroup - 1)), members - groups
}

// annotateTreePlan attaches the tree-phase span: depth (= rounds), group
// count and largest group — the O(log m) term made visible.
func annotateTreePlan(plan *lbm.Plan, label string, groups []Group) {
	if len(groups) == 0 {
		return
	}
	maxGroup := 0
	for _, g := range groups {
		if len(g.Nodes) > maxGroup {
			maxGroup = len(g.Nodes)
		}
	}
	plan.Annotate(label, map[string]float64{
		"groups":    float64(len(groups)),
		"depth":     float64(len(plan.Rounds)),
		"max_group": float64(maxGroup),
	})
}

// ConvergecastPlan builds a plan in which, for every group, the partial
// values held under Key by all members are summed (ring addition) into
// Nodes[0] by a binary reduction tree in ⌈log₂ |group|⌉ rounds. Every member
// must hold Key before the plan runs.
func ConvergecastPlan(groups []Group) *lbm.Plan {
	plan := &lbm.Plan{}
	maxLen := 0
	for _, g := range groups {
		if len(g.Nodes) > maxLen {
			maxLen = len(g.Nodes)
		}
	}
	for stride := 1; stride < maxLen; stride <<= 1 {
		var round lbm.Round
		for _, g := range groups {
			for idx := stride; idx < len(g.Nodes); idx += 2 * stride {
				round = append(round, lbm.Send{
					From: g.Nodes[idx], To: g.Nodes[idx-stride],
					Src: g.Key, Dst: g.Key, Op: lbm.OpAcc,
				})
			}
		}
		plan.Append(round)
	}
	annotateTreePlan(plan, "routing/convergecast", groups)
	return plan
}
