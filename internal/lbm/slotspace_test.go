package lbm

import (
	"math/rand"
	"slices"
	"testing"
)

// refSpace is the slot index SlotSpace replaced, kept as the oracle of
// TestSlotSpaceMatchesMap: a Go map from (node, key) to slot, the keys in
// order of first sight, and per-node sizes.
type refSpace struct {
	n     int
	idx   map[nodeKey]int32
	seen  []nodeKey
	sizes []int32
}

func newRefSpace(n int) *refSpace {
	return &refSpace{n: n, idx: map[nodeKey]int32{}, sizes: make([]int32, n)}
}

func (s *refSpace) slot(node NodeID, k Key) int32 {
	if node < 0 || int(node) >= s.n {
		return -1
	}
	nk := nodeKeyOf(node, k)
	if sl, ok := s.idx[nk]; ok {
		return sl
	}
	sl := s.sizes[node]
	s.idx[nk] = sl
	s.seen = append(s.seen, nk)
	s.sizes[node]++
	return sl
}

func (s *refSpace) lookup(node NodeID, k Key) (int32, bool) {
	sl, ok := s.idx[nodeKeyOf(node, k)]
	return sl, ok
}

// each visits the keys by node, then by slot, as EachKey promises.
func (s *refSpace) each(f func(node NodeID, k Key, slot int32)) {
	for v := range s.n {
		for _, nk := range s.seen {
			if nk.node == NodeID(v) {
				f(nk.node, nk.key(), s.idx[nk])
			}
		}
	}
}

type slotVisit struct {
	node NodeID
	k    Key
	slot int32
}

// longestProbe returns the most entries any key of sp's index passes over
// from its home entry to its own, counting its own.
func longestProbe(sp *SlotSpace) int {
	mask := uint64(len(sp.tab) - 1)
	longest := 0
	for p, e := range sp.tab {
		if e.slot != 0 {
			longest = max(longest, int((uint64(p)-e.nk.hash())&mask)+1)
		}
	}
	return longest
}

// TestSlotSpaceMatchesMap feeds key streams to a SlotSpace and to the map
// index it replaced, and requires the same slot for every key, the same
// Lookup answers on present and absent keys, the same Sizes and the same
// EachKey order. The streams revisit keys and take several doublings of the
// index: random keys, one node holding thousands of keys, a dense block's
// keys at a few hosts, and strided columns.
func TestSlotSpaceMatchesMap(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	type ask struct {
		node NodeID
		k    Key
	}
	streams := map[string][]ask{}
	var random []ask
	for range 20000 {
		// Small ranges, so keys repeat; nodes just outside the space too.
		node := NodeID(rng.Intn(n+2) - 1)
		k := Key{Kind: Kind(rng.Intn(6)), I: int32(rng.Intn(8)), J: int32(rng.Intn(8)), Seq: int32(rng.Intn(2))}
		random = append(random, ask{node, k})
	}
	streams["random"] = random
	var hot []ask
	for q := range 6000 {
		hot = append(hot, ask{0, AKey(int32(q/80), int32(q%80))}, ask{0, AKey(int32(q/160), int32(q%80))})
	}
	streams["one node"] = hot
	var block []ask
	for _, host := range []NodeID{1, 7, 63} {
		for i := range int32(48) {
			for j := range int32(48) {
				block = append(block, ask{host, Key{Kind: KStage, I: i, J: j, Seq: int32(host)}}, ask{host, BKey(j, i)})
			}
		}
	}
	streams["dense block"] = block
	var strided []ask
	for _, stride := range []int32{1, 64, 256, 1 << 12, 1 << 20} {
		for i := range int32(32) {
			for c := range int32(64) {
				strided = append(strided, ask{NodeID(i % n), XKey(i, c*stride)}, ask{NodeID(c % n), TKey(i, c*stride, stride)})
			}
		}
	}
	streams["strided columns"] = strided

	for name, stream := range streams {
		sp, ref := NewSlotSpace(n, 0), newRefSpace(n)
		for q, a := range stream {
			if got, want := sp.Slot(a.node, a.k), ref.slot(a.node, a.k); got != want {
				t.Fatalf("%s: key %d, %v at node %d: slot %d, want %d", name, q, a.k, a.node, got, want)
			}
			// Every so often, ask for a key nearby that may not be there.
			if q%7 == 0 {
				probe := a.k
				probe.Seq += 5
				gs, gok := sp.Lookup(a.node, probe)
				ws, wok := ref.lookup(a.node, probe)
				if gs != ws || gok != wok {
					t.Fatalf("%s: Lookup %v at node %d: (%d, %v), want (%d, %v)", name, probe, a.node, gs, gok, ws, wok)
				}
			}
		}
		for _, a := range stream {
			gs, gok := sp.Lookup(a.node, a.k)
			ws, wok := ref.lookup(a.node, a.k)
			if gs != ws || gok != wok {
				t.Fatalf("%s: Lookup %v at node %d: (%d, %v), want (%d, %v)", name, a.k, a.node, gs, gok, ws, wok)
			}
		}
		if !slices.Equal(sp.Sizes(), ref.sizes) {
			t.Fatalf("%s: Sizes %v, want %v", name, sp.Sizes(), ref.sizes)
		}
		var got, want []slotVisit
		sp.EachKey(func(node NodeID, k Key, slot int32) { got = append(got, slotVisit{node, k, slot}) })
		ref.each(func(node NodeID, k Key, slot int32) { want = append(want, slotVisit{node, k, slot}) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: EachKey visits %d keys, differently from the map's %d", name, len(got), len(want))
		}
		longest := longestProbe(sp)
		t.Logf("%s: %d keys in %d entries, longest probe %d", name, len(ref.seen), len(sp.tab), longest)
		// At most half full, a seeded hash keeps probes to a few dozen
		// entries; a chain this long means the hash has degenerated.
		if longest > 256 {
			t.Errorf("%s: longest probe %d entries", name, longest)
		}
	}
}
