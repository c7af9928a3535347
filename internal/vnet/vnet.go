// Package vnet provides the virtual-computer abstraction the paper's
// algorithms rely on: a set of V virtual nodes is assigned to the n real
// computers with bounded multiplicity c, and a communication plan written
// against virtual nodes — an lbm.Plan whose From and To are virtual node
// ids, typically a routing.Schedule of virtual messages — is compiled into a
// real low-bandwidth plan. Because each virtual node sends and receives at
// most one message per virtual round, the induced real h-relation has
// degree at most c, so each virtual round costs O(c) real rounds (§3.2: "we
// can simulate their work in the real computer network with constant
// overhead"). Each virtual round is lowered by routing.ScheduleRound, the
// same lowering the congested clique's simulation uses.
//
// Two users: the tripartite role-nodes (every computer simulates its I, J
// and K role, c = 3), and the balanced virtual instance of Lemma 3.1
// (c ≤ 4).
package vnet

import (
	"fmt"

	"lbmm/internal/lbm"
	"lbmm/internal/routing"
)

// Net assigns virtual nodes to hosts.
type Net struct {
	// Host[v] is the real computer simulating virtual node v.
	Host []lbm.NodeID
	// MaxLoad is the maximum number of virtual nodes on one host.
	MaxLoad int
}

// New builds a net from an explicit host assignment.
func New(host []lbm.NodeID) *Net {
	load := map[lbm.NodeID]int{}
	mx := 0
	for _, h := range host {
		load[h]++
		if load[h] > mx {
			mx = load[h]
		}
	}
	return &Net{Host: append([]lbm.NodeID(nil), host...), MaxLoad: mx}
}

// Roles returns the canonical 3n-node net for the tripartite view: virtual
// node v < n is the I-role of computer v, v in [n, 2n) the J-role of
// computer v-n, and v in [2n, 3n) the K-role of computer v-2n.
func Roles(n int) *Net {
	host := make([]lbm.NodeID, 3*n)
	for v := range host {
		host[v] = lbm.NodeID(v % n)
	}
	return &Net{Host: host, MaxLoad: 3}
}

// V returns the number of virtual nodes.
func (nt *Net) V() int { return len(nt.Host) }

// Compile lowers a virtual plan — an lbm.Plan whose From and To are virtual
// node ids — to a real plan. Every virtual round is checked (each virtual
// node sends ≤ 1 and receives ≤ 1), mapped to host messages, and lowered by
// routing.ScheduleRound: an h-relation of degree ≤ MaxLoad, scheduled by
// edge colouring, that reads the virtual round's start state.
func (nt *Net) Compile(p *lbm.Plan) (*lbm.Plan, error) {
	out := &lbm.Plan{}
	sentAt := make([]int, nt.V())
	recvAt := make([]int, nt.V())
	for i := range sentAt {
		sentAt[i] = -1
		recvAt[i] = -1
	}
	for t, vr := range p.Rounds {
		msgs := make(lbm.Round, len(vr))
		for i, s := range vr {
			if s.From < 0 || int(s.From) >= nt.V() || s.To < 0 || int(s.To) >= nt.V() {
				return nil, fmt.Errorf("vnet: round %d: vnode out of range in %v->%v", t, s.From, s.To)
			}
			if s.From != s.To {
				// Virtual self-sends are free local copies and exempt.
				if sentAt[s.From] == t {
					return nil, fmt.Errorf("vnet: round %d: vnode %d sends twice", t, s.From)
				}
				if recvAt[s.To] == t {
					return nil, fmt.Errorf("vnet: round %d: vnode %d receives twice", t, s.To)
				}
				sentAt[s.From] = t
				recvAt[s.To] = t
			}
			msgs[i] = s
			msgs[i].From, msgs[i].To = nt.Host[s.From], nt.Host[s.To]
		}
		routing.ScheduleRound(out, msgs)
	}
	// One coarse phase for the whole compiled plan (Extend keeps none of the
	// per-virtual-round hrel phases, which would drown a profile in noise):
	// the interesting quantities are the simulation overhead (real rounds
	// per virtual round, ≤ 2·c) and the multiplicity c itself.
	if len(out.Rounds) > 0 || len(p.Rounds) > 0 {
		out.Annotate("vnet/compiled", map[string]float64{
			"virtual_rounds": float64(len(p.Rounds)),
			"max_load":       float64(nt.MaxLoad),
		})
	}
	return out, nil
}
