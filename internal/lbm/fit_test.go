package lbm

import (
	"math"
	"testing"

	"lbmm/internal/ring"
)

// checkViews holds an executor's arenas and stamps to the sizes it was
// fitted to: node v's views have exactly sizes[v] slots (times the lanes)
// as both length and capacity, so no node can append into its neighbour,
// and they lie back to back in the slabs.
func checkViews(t *testing.T, x *Exec, sizes []int32) {
	t.Helper()
	K, lo := x.lanes, 0
	for v, sz := range sizes {
		n := int(sz)
		if len(x.stamp[v]) != n || cap(x.stamp[v]) != n {
			t.Fatalf("node %d: stamps len %d cap %d, want %d", v, len(x.stamp[v]), cap(x.stamp[v]), n)
		}
		if len(x.arena[v]) != n*K || cap(x.arena[v]) != n*K {
			t.Fatalf("node %d: arena len %d cap %d, want %d", v, len(x.arena[v]), cap(x.arena[v]), n*K)
		}
		if n > 0 && (&x.stamp[v][0] != &x.stamps[lo] || &x.arena[v][0] != &x.vals[lo*K]) {
			t.Fatalf("node %d: views do not start at slot %d of the slabs", v, lo)
		}
		lo += n
	}
}

// fillAll puts a value in every lane of every slot of sizes' layout.
func fillAll(x *Exec, sizes []int32, v ring.Value) {
	for node, sz := range sizes {
		for s := int32(0); s < sz; s++ {
			for l := 0; l < x.lanes; l++ {
				x.PutLane(SlotRef{Node: NodeID(node), Slot: s}, l, v)
			}
		}
	}
}

// checkAbsent fails if any slot of sizes' layout is present or any node
// counts a value.
func checkAbsent(t *testing.T, x *Exec, sizes []int32, when string) {
	t.Helper()
	for node, sz := range sizes {
		if x.StoreLen(NodeID(node)) != 0 {
			t.Fatalf("%s: node %d holds %d values", when, node, x.StoreLen(NodeID(node)))
		}
		for s := int32(0); s < sz; s++ {
			if x.Present(SlotRef{Node: NodeID(node), Slot: s}) {
				t.Fatalf("%s: node %d slot %d is present", when, node, s)
			}
		}
	}
}

// TestExecFit pins Fit's contract on an executor that serves plans of
// different arena sizes in turn: exact capped views after every layout,
// a slab grown only past its capacity, no allocation when the plan fits,
// none at all when the layout is the one already in place, and no slot
// present after Fit whatever the previous layout left stamped.
func TestExecFit(t *testing.T) {
	small, large := []int32{2, 0, 3, 1}, []int32{4, 5, 0, 6}
	for _, lanes := range []int{1, 3} {
		x := NewExecBatch(small, lanes, ring.Counting{})
		checkViews(t, x, small)
		if len(x.stamps) != 6 || len(x.vals) != 6*lanes {
			t.Fatalf("lanes %d: slabs of %d stamps and %d values for 6 slots", lanes, len(x.stamps), len(x.vals))
		}
		fillAll(x, small, 7)
		x.Reset()

		x.Fit(large, ring.NewGFp(1009))
		checkViews(t, x, large)
		if len(x.stamps) != 15 || len(x.vals) != 15*lanes {
			t.Fatalf("lanes %d: grown slabs of %d stamps and %d values for 15 slots", lanes, len(x.stamps), len(x.vals))
		}
		if x.field == nil {
			t.Fatalf("lanes %d: Fit over GF(1009) left the executor without subtraction", lanes)
		}
		checkAbsent(t, x, large, "after growing")
		fillAll(x, large, 9)
		x.Reset()

		stamps, vals := &x.stamps[0], &x.vals[0]
		smaller := []int32{1, 1, 1, 1}
		if a := testing.AllocsPerRun(10, func() {
			x.Fit(small, ring.Counting{})
			x.Fit(smaller, ring.Counting{})
		}); a != 0 {
			t.Fatalf("lanes %d: re-laying within the slabs allocated %.1f times", lanes, a)
		}
		x.Fit(small, ring.Counting{})
		if &x.stamps[0] != stamps || &x.vals[0] != vals {
			t.Fatalf("lanes %d: a smaller plan replaced a slab", lanes)
		}
		if x.field != nil {
			t.Fatalf("lanes %d: Fit over the counting ring kept GF(1009)'s subtraction", lanes)
		}
		checkViews(t, x, small)
		checkAbsent(t, x, small, "after shrinking")
		arena := &x.arena[0][0]
		x.Fit(small, ring.Counting{})
		if &x.arena[0][0] != arena {
			t.Fatalf("lanes %d: fitting the layout in place re-laid it", lanes)
		}
	}
}

// TestExecFitStampWrap checks the stamp wrap across layouts: the hard clear
// at the wrap covers the whole stamp slab, so a slot a larger, earlier
// layout left stamped cannot turn present again when the epoch climbs back
// to its stamp.
func TestExecFitStampWrap(t *testing.T) {
	large, small := []int32{3, 4}, []int32{1, 0}
	x := NewExecBatch(large, 2, ring.Counting{})
	x.epoch = math.MaxUint32 - 1
	fillAll(x, large, 5)
	x.Reset()
	x.Fit(small, ring.Counting{})
	fillAll(x, small, 6)
	x.Reset() // the epoch wraps here
	if x.epoch != 1 {
		t.Fatalf("epoch %d after the wrap, want 1", x.epoch)
	}
	for i, s := range x.stamps {
		if s != 0 {
			t.Fatalf("stamp %d of the slab is %d after the wrap, want 0", i, s)
		}
	}
	x.Fit(large, ring.Counting{})
	checkAbsent(t, x, large, "after the wrap")
}
