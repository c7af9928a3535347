package lbm

import "sync/atomic"

// This file is the exchange pass of the execution spine: it groups the
// network rounds of compiled plans into exchanges, the unit a Transport
// blocks on. The model charges a round per message because each of n
// computers sends one word per round (§2); the few participants that
// simulate them under a transport are a different machine — few machines,
// many words per exchange — and since structure is known in advance, which
// rounds truly depend on each other is a compile-time fact. Rounds that do
// not depend on each other share one barrier.
//
// The rule is a function of the plans alone, so every participant derives
// the same schedule without knowing the node→participant table. Walking a
// chain's rounds in model order with one exchange open, a round with real
// messages rides the open exchange iff none of its real messages (From ≠ To)
// reads a (node, slot) that any instruction — real or local copy — of an
// earlier round of that exchange writes; otherwise it closes the exchange
// and opens the next. Rounds of only local copies never open or close an
// exchange; their writes count.
//
// Why that is sound: the executor sends every real message of an exchange
// from the state at the exchange's first round (Exec.openExchange), which
// equals the message's own round-start state on exactly the slots nothing in
// between wrote. Everything else — local copies, StoreLimit, presence and
// every apply, so also float association order — stays in the receive half,
// in model order, at the round's true start state (Exec.runRoundVia).
//
// A schedule is derived state: it is built on first use under a transport,
// cached on the chain, never serialized, and never paid for by the
// nil-transport engines.

// Chain is a run of compiled plans executed back to back with no local
// computation between them (collector events — marks, phase spans — are not
// computation). Under a transport its rounds may share exchanges across plan
// boundaries; Exec.RunChained walks it. A Chain must not be copied after
// first use, and Plans must not change.
type Chain struct {
	Plans []*CompiledPlan
	sched atomic.Pointer[Schedule]
}

// Schedule returns the chain's exchange schedule, building it on first use.
// Concurrent first uses may each run the pass; they agree on the result.
func (c *Chain) Schedule() *Schedule {
	if s := c.sched.Load(); s != nil {
		return s
	}
	c.sched.CompareAndSwap(nil, buildSchedule(c.Plans))
	return c.sched.Load()
}

// netRound addresses one network round (a round with at least one real
// message) of a chain.
type netRound struct{ plan, round int32 }

// Schedule is the exchange schedule of one chain: its network rounds in
// model order, cut into exchanges.
type Schedule struct {
	net  []netRound
	exch []int32 // exchange e carries net[exch[e]:exch[e+1]]
}

// Rounds returns the number of network rounds the schedule covers.
func (s *Schedule) Rounds() int { return len(s.net) }

// Exchanges returns the number of exchanges — Transport.Deliver calls — the
// chain costs every participant.
func (s *Schedule) Exchanges() int { return len(s.exch) - 1 }

// PlanCounts returns the network rounds of plan i of the chain and the
// exchanges that open in it (an exchange that rides over a plan boundary is
// charged to the plan of its first round).
func (s *Schedule) PlanCounts(i int) (rounds, exchanges int) {
	for _, nr := range s.net {
		if int(nr.plan) == i {
			rounds++
		}
	}
	for _, first := range s.exch[:len(s.exch)-1] {
		if int(s.net[first].plan) == i {
			exchanges++
		}
	}
	return rounds, exchanges
}

// slotIndex flattens (node, slot) over the slots the chain's plans touch:
// the per-slot scratch of the passes below is one slab indexed by
// off[node]+slot.
func slotIndex(plans []*CompiledPlan) (off []int32) {
	off = make([]int32, plans[0].N+1)
	for _, cp := range plans {
		for i, from := range cp.From {
			off[from+1] = max(off[from+1], cp.SrcSlot[i]+1)
			to := cp.To[i]
			off[to+1] = max(off[to+1], cp.DstSlot[i]+1)
		}
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	return off
}

// buildSchedule is the hazard pass: the rule at the top of this file, over
// one per-slot stamp slab (a slot is written in the open exchange iff its
// stamp equals the exchange's id).
func buildSchedule(plans []*CompiledPlan) *Schedule {
	s := &Schedule{}
	off := slotIndex(plans)
	written := make([]uint32, off[len(off)-1])
	id := uint32(0) // 0: no exchange open yet
	for pi, cp := range plans {
		for t := 0; t < cp.NumRounds(); t++ {
			lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
			if cp.Real[t] > 0 {
				ride := id != 0
				for i := lo; i < hi && ride; i++ {
					from := cp.From[i]
					ride = from == cp.To[i] || written[off[from]+cp.SrcSlot[i]] != id
				}
				if !ride {
					id++
					s.exch = append(s.exch, int32(len(s.net)))
				}
				s.net = append(s.net, netRound{plan: int32(pi), round: int32(t)})
			}
			if id == 0 {
				continue // nothing is open: the next real round gathers after these writes
			}
			for i := lo; i < hi; i++ {
				written[off[cp.To[i]]+cp.DstSlot[i]] = id
			}
		}
	}
	s.exch = append(s.exch, int32(len(s.net)))
	return s
}

// Depth returns the longest chain of dependent real messages in the chain: a
// message depends on every message whose value — directly, or through local
// copies and accumulations — it forwards. No schedule that keeps rounds whole
// and in model order can use fewer exchanges than the hazard pass finds, and
// none at all can use fewer than this: it is the floor the exchange count is
// read against (EXPERIMENTS.md, "Model rounds vs. physical exchanges").
func (c *Chain) Depth() int {
	off := slotIndex(c.Plans)
	depth := make([]int32, off[len(off)-1]) // messages behind the value in each slot
	var carried []int32                     // per instruction of the round, read at round start
	var deepest int32
	for _, cp := range c.Plans {
		for t := 0; t < cp.NumRounds(); t++ {
			lo, hi := int(cp.RoundOff[t]), int(cp.RoundOff[t+1])
			carried = carried[:0]
			for i := lo; i < hi; i++ {
				d := depth[off[cp.From[i]]+cp.SrcSlot[i]]
				if cp.From[i] != cp.To[i] {
					d++
				}
				carried = append(carried, d)
			}
			for i := lo; i < hi; i++ {
				d, dst := carried[i-lo], off[cp.To[i]]+cp.DstSlot[i]
				if cp.Ops[i] != OpSet && depth[dst] > d {
					d = depth[dst]
				}
				depth[dst] = d
				if d > deepest {
					deepest = d
				}
			}
		}
	}
	return int(deepest)
}

// PhaseExchanges is one row of the rounds-versus-exchanges table: the
// network rounds the model charges a phase and the exchanges a transport
// blocks on for it.
type PhaseExchanges struct {
	Phase     string
	Rounds    int
	Exchanges int
}

// ExchangeReport is the rounds-versus-exchanges table of a compiled
// pipeline, a compile-time property of the structure like NodeLoads: Phases
// in execution order, their totals, and Depth, the sum of the chains'
// dependency depths — the floor under Exchanges.
type ExchangeReport struct {
	Phases    []PhaseExchanges
	Rounds    int
	Exchanges int
	Depth     int
}

// AddChain adds one chain to the report; labels name the phases of the
// chain's plans in order. A phase a pipeline runs more than once (one
// dense/cube program per clustering) keeps one row, summed.
func (rep *ExchangeReport) AddChain(c *Chain, labels ...string) {
	s := c.Schedule()
	for i, label := range labels {
		rounds, exchanges := s.PlanCounts(i)
		row := 0
		for row < len(rep.Phases) && rep.Phases[row].Phase != label {
			row++
		}
		if row == len(rep.Phases) {
			rep.Phases = append(rep.Phases, PhaseExchanges{Phase: label})
		}
		rep.Phases[row].Rounds += rounds
		rep.Phases[row].Exchanges += exchanges
	}
	rep.Rounds += s.Rounds()
	rep.Exchanges += s.Exchanges()
	rep.Depth += c.Depth()
}
