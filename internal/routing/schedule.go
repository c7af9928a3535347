package routing

import (
	"math/bits"

	"lbmm/internal/lbm"
)

// Msg is one pending message of an h-relation.
type Msg struct {
	From, To lbm.NodeID
	Src, Dst lbm.Key
	Op       lbm.Op
}

// Strategy selects the edge-colouring backend used to schedule h-relations.
type Strategy uint8

const (
	// Euler uses recursive Euler splitting: at most 2^⌈log₂ Δ⌉ < 2Δ rounds
	// in O(E log Δ) time. The default.
	Euler Strategy = iota
	// Konig uses exact Δ-round schedules in O(E·(V+Δ)) time; right for
	// small instances and for measuring the model's exact constants.
	Konig
	// Auto picks König when its O(E·Δ) cost is affordable and Euler
	// otherwise. Exact schedules avoid the ≤2^⌈log₂Δ⌉ rounding of the
	// Euler split, which otherwise staircases measured round counts.
	Auto
)

// autoKonigBudget caps the König work E·Δ (colour scans) Auto will accept.
const autoKonigBudget = 1 << 27

// konigAffordable reports whether Auto colours e real messages of largest
// degree delta by König.
func konigAffordable(e, delta int) bool {
	return delta > 0 && e*delta <= autoKonigBudget
}

// Price returns what Schedule(msgs, Auto) charges, as lbm.Plan.Cost counts
// it, without colouring anything: the per-computer send and receive degrees
// of the real (From ≠ To) messages decide it (Degrees.Price).
func Price(msgs []Msg) (rounds, messages int, exact bool) {
	d := degreesOf(msgs)
	return d.Price()
}

// degreeMax returns the largest per-computer send and receive
// multiplicities of the real messages of msgs, and their count: the lower
// bound any schedule of them must pay.
func degreeMax(msgs []Msg) (maxSend, maxRecv, remote int) {
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
func degreesOf(msgs []Msg) Degrees {
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

// Price returns what Schedule(…, Auto) charges for the messages tallied,
// as lbm.Plan.Cost counts it. messages is their count E. Where Auto colours
// by König — E·Δ within autoKonigBudget, Δ the largest degree — the
// schedule has exactly Δ rounds (König's theorem: a vertex of degree Δ
// meets every colour), and exact is true; so it is for an h-relation of
// local copies only, which costs nothing. Otherwise Auto splits by Euler,
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
func nodeSpan(msgs []Msg) (lo lbm.NodeID, span, remote int) {
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
// sender/receiver multigraph. The number of rounds is O(S + R) where S and R
// are the maximum per-node send and receive multiplicities — the h-relation
// bound used throughout the paper's §3.3. What an Auto schedule charges is
// known before colouring (Price), so a planner that prices several
// candidates colours only the one it keeps.
//
// Self-messages (From == To) are free local copies; they are all placed in
// the first round.
func Schedule(msgs []Msg, strategy Strategy) *lbm.Plan {
	h := compact(msgs)
	maxSend, maxRecv, _ := degreeMax(msgs)
	delta := max(maxSend, maxRecv)
	if strategy == Auto {
		if konigAffordable(len(h.edges), delta) {
			strategy = Konig
		} else {
			strategy = Euler
		}
	}
	var classes [][]int32
	if strategy == Konig {
		classes = konigColor(h.edges, h.nl, h.nr, delta)
	} else {
		classes = eulerColor(h.edges, h.nl, h.nr)
	}

	// Every round is a window of one slab of sends. The local copies lead
	// round 0, or make up the only round when nothing is remote.
	send := func(m Msg) lbm.Send { return lbm.Send{From: m.From, To: m.To, Src: m.Src, Dst: m.Dst, Op: m.Op} }
	plan := &lbm.Plan{Rounds: make([]lbm.Round, 0, max(len(classes), 1))}
	sends := make([]lbm.Send, 0, len(msgs))
	for _, m := range msgs {
		if m.From == m.To {
			sends = append(sends, send(m))
		}
	}
	local := len(sends)
	start := 0
	for _, class := range classes {
		for _, ei := range class {
			sends = append(sends, send(msgs[h.remote[ei]]))
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
func compact(msgs []Msg) hrel {
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
