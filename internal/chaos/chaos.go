// Package chaos is the fault-injection and chaos-testing layer of the
// repository. The supported low-bandwidth model assumes a perfect
// synchronous network — each round every computer sends and receives at
// most one message, and every message makes the barrier (§2). A production
// serving stack cannot assume that, so this package provides:
//
//   - FaultPlan: a declarative, seedable description of network faults —
//     per-round drop/duplicate/corrupt/delay rates and explicit per-node
//     straggler masks — that compiles into a deterministic lbm.Injector
//     shared by both execution engines;
//   - Differential: a chaos differential harness that runs randomized
//     (structure, ring, fault plan) cases through the map oracle and the
//     compiled engine and holds them to identical products on fault-free
//     runs and identical typed lbm.ErrFault detections (same kind, same
//     network round, same node) under injected faults.
//
// Determinism is the load-bearing property: an injector's verdict is a pure
// hash of (seed, round, ordinal), so a fault plan replays bit-identically
// across engines, runs and hosts. docs/CHAOS.md documents the model; the
// `lbmm chaos` subcommand runs the harness from the command line.
package chaos

import (
	"fmt"
	"sort"

	"lbmm/internal/lbm"
)

// Rates are per-message fault probabilities for one round (or the plan-wide
// default). Each message suffers at most one fault; the rates partition the
// unit interval, so their sum must not exceed 1.
type Rates struct {
	Drop, Duplicate, Corrupt, Delay float64
}

// total sums the rates (the probability a message is struck at all).
func (r Rates) total() float64 { return r.Drop + r.Duplicate + r.Corrupt + r.Delay }

// zero reports an all-clean rate set.
func (r Rates) zero() bool { return r.total() == 0 }

// RoundRates overrides the plan-wide rates for one network round — the
// per-round fault schedule of a plan.
type RoundRates struct {
	Round int
	Rates
}

// Straggler marks one computer late for the network rounds [From, To); a
// zero To masks just round From. Every message the straggler would send in
// a masked round misses the barrier.
type Straggler struct {
	Node     lbm.NodeID
	From, To int
}

// FaultPlan is a deterministic, seedable fault schedule. The zero value
// injects nothing. Plans are pure data: the same plan produces the same
// injector verdicts on every engine, run and host.
type FaultPlan struct {
	// Seed keys the per-message hash; two plans with equal rates but
	// different seeds strike different messages.
	Seed int64
	// Rates are the plan-wide per-message fault probabilities.
	Rates
	// Rounds overrides the rates for specific network rounds (the
	// per-round schedule); unlisted rounds use the plan-wide rates.
	Rounds []RoundRates
	// Stragglers are explicit per-node straggler masks.
	Stragglers []Straggler
	// FromRound/ToRound restrict injection to the network rounds
	// [FromRound, ToRound); a zero ToRound leaves the window open-ended.
	// Straggler masks carry their own windows and ignore this one.
	FromRound, ToRound int
}

// Validate rejects plans whose rates do not describe probabilities.
func (p FaultPlan) Validate() error {
	check := func(where string, r Rates) error {
		for _, v := range []float64{r.Drop, r.Duplicate, r.Corrupt, r.Delay} {
			if v < 0 || v > 1 {
				return fmt.Errorf("chaos: %s: rate %v outside [0,1]", where, v)
			}
		}
		if r.total() > 1 {
			return fmt.Errorf("chaos: %s: rates sum to %v > 1", where, r.total())
		}
		return nil
	}
	if err := check("plan", p.Rates); err != nil {
		return err
	}
	for _, rr := range p.Rounds {
		if rr.Round < 0 {
			return fmt.Errorf("chaos: round override for negative round %d", rr.Round)
		}
		if err := check(fmt.Sprintf("round %d", rr.Round), rr.Rates); err != nil {
			return err
		}
	}
	for _, s := range p.Stragglers {
		if s.Node < 0 {
			return fmt.Errorf("chaos: straggler mask for negative node %d", s.Node)
		}
	}
	return nil
}

// Quiet reports whether the plan can never strike a message.
func (p FaultPlan) Quiet() bool {
	if !p.Rates.zero() {
		return false
	}
	for _, rr := range p.Rounds {
		if !rr.Rates.zero() {
			return false
		}
	}
	return len(p.Stragglers) == 0
}

// Injector compiles the plan into its executable form. The result is
// immutable and safe for concurrent use by both engines at once.
func (p FaultPlan) Injector() (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: p}
	if len(p.Rounds) > 0 {
		in.overrides = make(map[int]Rates, len(p.Rounds))
		for _, rr := range p.Rounds {
			in.overrides[rr.Round] = rr.Rates
		}
	}
	if len(p.Stragglers) > 0 {
		in.stragglers = make(map[lbm.NodeID][][2]int, len(p.Stragglers))
		for _, s := range p.Stragglers {
			to := s.To
			if to <= s.From {
				to = s.From + 1
			}
			in.stragglers[s.Node] = append(in.stragglers[s.Node], [2]int{s.From, to})
		}
		for _, spans := range in.stragglers {
			sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		}
	}
	return in, nil
}

// MustInjector is Injector for statically-known plans (tests, the CLI).
func (p FaultPlan) MustInjector() *Injector {
	in, err := p.Injector()
	if err != nil {
		panic(err)
	}
	return in
}

// Injector is a compiled FaultPlan implementing lbm.Injector. Verdicts are
// pure functions of (seed, round, ordinal): no state, no allocation, safe
// to share across engines and goroutines.
type Injector struct {
	plan       FaultPlan
	overrides  map[int]Rates
	stragglers map[lbm.NodeID][][2]int
}

// rates resolves the effective rates for a round: the per-round override if
// one exists, the plan-wide rates if the round is inside the window, and
// all-clean otherwise.
func (in *Injector) rates(round int) Rates {
	if r, ok := in.overrides[round]; ok {
		return r
	}
	if round < in.plan.FromRound || (in.plan.ToRound > 0 && round >= in.plan.ToRound) {
		return Rates{}
	}
	return in.plan.Rates
}

// Decide implements lbm.Injector: the fault striking the ord-th real
// message of the given network round.
func (in *Injector) Decide(round, ord int, from, to lbm.NodeID) lbm.FaultKind {
	r := in.rates(round)
	if r.zero() {
		return lbm.FaultNone
	}
	u := unit(uint64(in.plan.Seed), uint64(round), uint64(ord))
	if u < r.Drop {
		return lbm.FaultDrop
	}
	u -= r.Drop
	if u < r.Duplicate {
		return lbm.FaultDuplicate
	}
	u -= r.Duplicate
	if u < r.Corrupt {
		return lbm.FaultCorrupt
	}
	u -= r.Corrupt
	if u < r.Delay {
		return lbm.FaultDelay
	}
	return lbm.FaultNone
}

// Straggles implements lbm.Injector: whether the node's straggler mask
// covers the round.
func (in *Injector) Straggles(round int, node lbm.NodeID) bool {
	for _, span := range in.stragglers[node] {
		if span[0] > round {
			return false
		}
		if round < span[1] {
			return true
		}
	}
	return false
}

// unit hashes (seed, round, ord) to a uniform float64 in [0, 1) with a
// splitmix64 finalizer — the determinism the whole layer rests on.
func unit(seed, round, ord uint64) float64 {
	z := seed ^ (round * 0x9e3779b97f4a7c15) ^ (ord * 0xbf58476d1ce4e5b9)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
