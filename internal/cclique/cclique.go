// Package cclique implements the congested clique layer of the paper's
// §1.5 discussion: in the congested clique, each of the n computers may
// send one O(log n)-bit message to *every* other computer per round
// (n−1 sends and n−1 receives), and "any algorithm that runs in T(n) rounds
// in the congested clique model can be simulated in n·T(n) rounds in the
// low-bandwidth model". The Simulate function is that theorem made
// executable: a clique plan is an lbm.Plan whose rounds Validate accepts,
// and each of its rounds is an h-relation of degree at most n−1, which
// routing.ScheduleRound — the lowering vnet's virtual rounds share —
// realizes in at most n−1 low-bandwidth rounds, every message reading the
// clique round's start state.
package cclique

import (
	"fmt"
	"slices"

	"lbmm/internal/lbm"
	"lbmm/internal/routing"
)

// Validate checks that p is a congested-clique plan on n computers: within
// a round, every ordered pair of computers exchanges at most one message.
func Validate(p *lbm.Plan, n int) error {
	for t, r := range p.Rounds {
		seen := make(map[[2]lbm.NodeID]bool, len(r))
		for _, s := range r {
			if s.From < 0 || int(s.From) >= n || s.To < 0 || int(s.To) >= n {
				return fmt.Errorf("cclique: round %d: %d->%d out of range", t, s.From, s.To)
			}
			pair := [2]lbm.NodeID{s.From, s.To}
			if seen[pair] {
				return fmt.Errorf("cclique: round %d: duplicate message %d->%d", t, s.From, s.To)
			}
			seen[pair] = true
		}
	}
	return nil
}

// Simulate compiles a congested-clique plan into a low-bandwidth plan
// (§1.5): each congested-clique round is lowered by routing.ScheduleRound,
// so it reads the clique round's start state and becomes at most n−1
// low-bandwidth rounds (plus a free round of snapshot copies where the
// round overwrites a key it also sends), and a T-round clique algorithm
// costs at most (n−1)·T ≤ n·T rounds.
func Simulate(p *lbm.Plan, n int) (*lbm.Plan, error) {
	if err := Validate(p, n); err != nil {
		return nil, err
	}
	out := &lbm.Plan{}
	for _, r := range p.Rounds {
		routing.ScheduleRound(out, slices.Clone(r))
	}
	return out, nil
}

// AllToAll returns the canonical 1-round congested-clique plan in which
// every computer broadcasts its value under src to every other computer
// (stored under a per-sender destination key built by dst). Simulating it
// in the low-bandwidth model costs exactly n−1 rounds — the gap between
// the models the paper's §1.5 calls out.
func AllToAll(n int, src func(from lbm.NodeID) lbm.Key, dst func(from lbm.NodeID) lbm.Key) *lbm.Plan {
	var r lbm.Round
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			r = append(r, lbm.Send{
				From: lbm.NodeID(u), To: lbm.NodeID(v),
				Src: src(lbm.NodeID(u)), Dst: dst(lbm.NodeID(u)), Op: lbm.OpSet,
			})
		}
	}
	p := &lbm.Plan{}
	p.Append(r)
	return p
}

// DenseMM returns the folklore O(n)-round congested-clique dense
// multiplication plan for the row layout (computer i holds rows i of A and
// B and reports row i of X): over n rounds, computer j streams a different
// element of its B row to every peer per round (round t sends B(j, (t+i+j)
// mod n) to peer i), so after n rounds computer i holds all of B and
// multiplies locally. Simulated in the low-bandwidth model this costs
// Θ(n²) rounds — the §1.5 observation that the clique model hides the
// per-computer bandwidth that the low-bandwidth model charges for.
//
// The returned plan only moves B; the caller runs the local products
// afterwards (LocalMM below).
func DenseMM(n int) *lbm.Plan {
	p := &lbm.Plan{}
	for t := 0; t < n; t++ {
		var r lbm.Round
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				k := (t + i + j) % n
				r = append(r, lbm.Send{
					From: lbm.NodeID(j), To: lbm.NodeID(i),
					Src: lbm.BKey(int32(j), int32(k)),
					Dst: lbm.BKey(int32(j), int32(k)),
					Op:  lbm.OpSet,
				})
			}
		}
		p.Append(r)
	}
	return p
}

// LocalMM finishes DenseMM: every computer multiplies its A row against the
// gathered B and stores its X row (free local computation).
func LocalMM(m *lbm.Machine, n int) {
	for i := 0; i < n; i++ {
		node := lbm.NodeID(i)
		for k := 0; k < n; k++ {
			acc := m.R.Zero()
			for j := 0; j < n; j++ {
				av, okA := m.Get(node, lbm.AKey(int32(i), int32(j)))
				bv, okB := m.Get(node, lbm.BKey(int32(j), int32(k)))
				if okA && okB {
					acc = m.R.Add(acc, m.R.Mul(av, bv))
				}
			}
			m.Put(node, lbm.XKey(int32(i), int32(k)), acc)
		}
	}
}
