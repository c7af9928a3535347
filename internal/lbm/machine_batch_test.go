package lbm

import (
	"fmt"

	"lbmm/internal/ring"
)

// MachineBatch is the map engine run on k value assignments ("lanes") over
// one shared plan sequence, executed the trivially-correct way — one
// independent map-backed Machine per lane, each walking every plan in full.
// It is a test helper: the oracle the lane-strided compiled batch
// (NewExecBatch) is differentially tested against in execbatch_test.go. By
// construction a MachineBatch run IS k independent Machine runs, so holding
// Exec's one-walk-updates-all-lanes form to a MachineBatch's outputs and
// per-lane Stats proves the batched walk equivalent to k sequential
// multiplies.
//
// MachineBatch is not a fast path and never will be: the batching win lives
// in the compiled engine, where the instruction decode, presence
// bookkeeping and stats replay amortize over lanes. Here every lane pays
// the full map walk, which is exactly what makes it trustworthy.
type MachineBatch struct {
	ms []*Machine
}

// NewMachineBatch returns a batched map machine with n computers per lane
// over ring r. Options apply to every lane machine identically. lanes < 1
// is treated as 1.
func NewMachineBatch(n, lanes int, r ring.Semiring, opts ...Option) *MachineBatch {
	if lanes < 1 {
		lanes = 1
	}
	mb := &MachineBatch{ms: make([]*Machine, lanes)}
	for l := range mb.ms {
		mb.ms[l] = New(n, r, opts...)
	}
	return mb
}

// Lanes returns the number of value assignments the batch carries.
func (mb *MachineBatch) Lanes() int { return len(mb.ms) }

// Lane returns the underlying machine of one lane (the oracle handle the
// differential tests compare slot by slot).
func (mb *MachineBatch) Lane(l int) *Machine { return mb.ms[l] }

// PutLane stores a value at node under key on one lane.
func (mb *MachineBatch) PutLane(node NodeID, k Key, lane int, v ring.Value) {
	mb.ms[lane].Put(node, k, v)
}

// GetLane reads the value stored at node under key on one lane.
func (mb *MachineBatch) GetLane(node NodeID, k Key, lane int) (ring.Value, bool) {
	return mb.ms[lane].Get(node, k)
}

// Run executes every round of the plan on every lane. Lanes share the
// structure, so they either all succeed or all fail identically; the first
// lane's error is returned (later lanes are not run past it).
func (mb *MachineBatch) Run(p *Plan) error {
	for l, m := range mb.ms {
		if err := m.Run(p); err != nil {
			return fmt.Errorf("lane %d: %w", l, err)
		}
	}
	return nil
}

// Stats returns lane 0's statistics. Every lane executed the identical
// round sequence, so all lanes report the same Stats; the batched compiled
// engine reports this same value once for the whole batch.
func (mb *MachineBatch) Stats() Stats { return mb.ms[0].Stats() }
