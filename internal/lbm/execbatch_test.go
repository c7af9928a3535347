package lbm

import (
	"math/rand"
	"reflect"
	"testing"

	"lbmm/internal/ring"
)

// laneLoads derives k independent value assignments over one shared load
// structure: lane l gets the seed loads with values perturbed by a
// lane-specific rng, so every lane exercises the same (node, key) pattern
// with different numbers — the contract the batched engine is built on.
func laneLoads(rng *rand.Rand, base []load, lanes int) [][]load {
	out := make([][]load, lanes)
	for l := range out {
		ls := make([]load, len(base))
		copy(ls, base)
		for i := range ls {
			ls[i].val = ring.Value(rng.Intn(7))
		}
		out[l] = ls
	}
	return out
}

// runMachineBatch executes the plan on the map-backed batched oracle.
func runMachineBatch(t *testing.T, p *Plan, perLane [][]load, r ring.Semiring, opts ...Option) (*MachineBatch, error) {
	t.Helper()
	mb := NewMachineBatch(6, len(perLane), r, opts...)
	for l, loads := range perLane {
		for _, ld := range loads {
			mb.PutLane(ld.node, ld.key, l, ld.val)
		}
	}
	return mb, mb.Run(p)
}

// runExecBatch lowers the plan into a caller-owned slot space and executes
// it on a lane-strided Exec carrying every lane at once.
func runExecBatch(t *testing.T, p *Plan, perLane [][]load, r ring.Semiring, opts ...Option) (*SlotSpace, *Exec, error) {
	t.Helper()
	sp := NewSlotSpace(6, 0)
	for _, ld := range perLane[0] {
		sp.Slot(ld.node, ld.key)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	x := NewExecBatch(sp.Sizes(), len(perLane), r, opts...)
	for l, loads := range perLane {
		for _, ld := range loads {
			x.PutLane(sp.Ref(ld.node, ld.key), l, ld.val)
		}
	}
	return sp, x, x.Run(cp)
}

// compareLanes checks that every lane of the batched executor matches the
// corresponding oracle machine over the whole slot space.
func compareLanes(t *testing.T, sp *SlotSpace, mb *MachineBatch, x *Exec) {
	t.Helper()
	for l := 0; l < mb.Lanes(); l++ {
		m := mb.Lane(l)
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			mv, mok := m.Get(node, k)
			xv, xok := x.GetLane(SlotRef{Node: node, Slot: slot}, l)
			if mok != xok || mv != xv {
				t.Errorf("lane %d node %d key %v: map (%v,%v) vs batched (%v,%v)",
					l, node, k, mv, mok, xv, xok)
			}
		})
	}
}

// TestExecBatchParityRandom is the batched engine-parity property test: on
// randomized plans a lane-strided Exec carrying k value assignments must
// reproduce, lane for lane, what k independent map machines produce — and
// the shared instruction walk must report the same Stats the scalar run
// does (presence and message accounting are per-slot, not per-lane).
func TestExecBatchParityRandom(t *testing.T) {
	rings := []struct {
		r   ring.Semiring
		sub bool
	}{
		{ring.Counting{}, false},
		{ring.MinPlus{}, false},
		{ring.Real{}, true},
		{ring.NewGFp(1009), true},
	}
	for _, rc := range rings {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, base := randomPlan(rng, 6, 10, rc.sub)
			for _, lanes := range []int{1, 3, 8} {
				perLane := laneLoads(rng, base, lanes)
				mb, merr := runMachineBatch(t, p, perLane, rc.r)
				if merr != nil {
					t.Fatalf("%s seed %d lanes %d: map: %v", rc.r.Name(), seed, lanes, merr)
				}
				sp, x, xerr := runExecBatch(t, p, perLane, rc.r)
				if xerr != nil {
					t.Fatalf("%s seed %d lanes %d: batched: %v", rc.r.Name(), seed, lanes, xerr)
				}
				compareLanes(t, sp, mb, x)
				if err := execStatsErr(mb.Stats(), x.Stats(), compiledOf(t, p)); err != nil {
					t.Errorf("%s seed %d lanes %d: %v", rc.r.Name(), seed, lanes, err)
				}
			}
		}
	}
}

// TestExecBatchReset checks that a lane-strided executor recycled through
// Reset carries no value leakage between batches: a second batch with
// different lane values must match its own oracle exactly.
func TestExecBatchReset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p, base := randomPlan(rng, 6, 8, true)
	sp := NewSlotSpace(6, 0)
	for _, ld := range base {
		sp.Slot(ld.node, ld.key)
	}
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	x := NewExecBatch(sp.Sizes(), 4, ring.Real{})
	for round := 0; round < 3; round++ {
		perLane := laneLoads(rng, base, 4)
		x.Reset()
		for l, loads := range perLane {
			for _, ld := range loads {
				x.PutLane(sp.Ref(ld.node, ld.key), l, ld.val)
			}
		}
		if err := x.Run(cp); err != nil {
			t.Fatalf("round %d: run: %v", round, err)
		}
		mb, merr := runMachineBatch(t, p, perLane, ring.Real{})
		if merr != nil {
			t.Fatalf("round %d: map: %v", round, merr)
		}
		compareLanes(t, sp, mb, x)
	}
}

// TestExecBatchLaneAccessors pins the lane accessor contract: PutLane
// writes one lane, MustLanes exposes the live stride, AccLanes folds into
// every lane with presence resolved once.
func TestExecBatchLaneAccessors(t *testing.T) {
	x := NewExecBatch([]int32{2}, 3, ring.Counting{})
	ref := SlotRef{Node: 0, Slot: 0}
	if x.lanes != 3 {
		t.Fatalf("lanes = %d, want 3", x.lanes)
	}
	if _, ok := x.GetLane(ref, 0); ok {
		t.Fatal("GetLane on empty slot reported present")
	}
	for l := 0; l < 3; l++ {
		x.PutLane(ref, l, ring.Value(l+1))
	}
	vs := x.MustLanes(ref)
	if !reflect.DeepEqual(vs, []ring.Value{1, 2, 3}) {
		t.Fatalf("MustLanes = %v, want [1 2 3]", vs)
	}
	x.AccLanes(ref, []ring.Value{10, 20, 30})
	for l, want := range []ring.Value{11, 22, 33} {
		got, ok := x.GetLane(ref, l)
		if !ok || got != want {
			t.Errorf("lane %d: got (%v,%v), want %v", l, got, ok, want)
		}
	}
	// AccLanes into an absent slot must not see stale values.
	other := SlotRef{Node: 0, Slot: 1}
	x.AccLanes(other, []ring.Value{5, 6, 7})
	for l, want := range []ring.Value{5, 6, 7} {
		got, ok := x.GetLane(other, l)
		if !ok || got != want {
			t.Errorf("absent-slot lane %d: got (%v,%v), want %v", l, got, ok, want)
		}
	}
}
