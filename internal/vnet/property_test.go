package vnet

import (
	"math/rand"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/ring"
)

// refExec executes a virtual plan directly on per-vnode stores with exact
// virtual-round semantics (gather all payloads against round-start state,
// then deliver). It is the specification Compile must match.
func refExec(nt *Net, p *lbm.Plan, stores []map[lbm.Key]float64, r ring.Semiring) {
	for _, round := range p.Rounds {
		type delivery struct {
			to  int32
			dst lbm.Key
			op  lbm.Op
			val float64
		}
		var ds []delivery
		for _, s := range round {
			v, ok := stores[s.From][s.Src]
			if !ok {
				continue
			}
			ds = append(ds, delivery{s.To, s.Dst, s.Op, v})
		}
		for _, d := range ds {
			switch d.op {
			case lbm.OpAcc:
				cur, ok := stores[d.to][d.dst]
				if !ok {
					cur = r.Zero()
				}
				stores[d.to][d.dst] = r.Add(cur, d.val)
			default:
				stores[d.to][d.dst] = d.val
			}
		}
	}
}

// TestCompileMatchesReference is the vnet property test: random virtual
// plans on random nets deliver exactly what the direct virtual executor
// computes, despite host multiplexing, scheduling and staging.
//
// Caveat encoded here: co-hosted virtual nodes SHARE keys on the host, so
// the generator gives every virtual node its own key namespace (Seq =
// vnode), mirroring how the algorithm packages use vnet.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	r := ring.Counting{}
	for trial := 0; trial < 40; trial++ {
		nHosts := 3 + rng.Intn(8)
		nV := nHosts * (1 + rng.Intn(3))
		host := make([]lbm.NodeID, nV)
		for v := range host {
			host[v] = lbm.NodeID(rng.Intn(nHosts))
		}
		nt := New(host)

		// Per-vnode key space: keys (vnode, slot).
		key := func(v int32, slot int32) lbm.Key { return lbm.TKey(v, slot, v) }

		m := lbm.New(nHosts, r)
		stores := make([]map[lbm.Key]float64, nV)
		const slots = 3
		for v := 0; v < nV; v++ {
			stores[v] = map[lbm.Key]float64{}
			for s := int32(0); s < slots; s++ {
				val := float64(rng.Intn(50))
				stores[v][key(int32(v), s)] = val
				m.Put(host[v], key(int32(v), s), val)
			}
		}

		// Random multi-round virtual plan respecting vnode constraints.
		p := &lbm.Plan{}
		for t2 := 0; t2 < 1+rng.Intn(6); t2++ {
			var round lbm.Round
			sent := map[int32]bool{}
			recv := map[int32]bool{}
			for attempts := 0; attempts < 2*nV; attempts++ {
				from := int32(rng.Intn(nV))
				to := int32(rng.Intn(nV))
				if from == to || sent[from] || recv[to] {
					continue
				}
				sent[from] = true
				recv[to] = true
				op := lbm.OpSet
				if rng.Intn(2) == 0 {
					op = lbm.OpAcc
				}
				round = append(round, lbm.Send{
					From: from, To: to,
					Src: key(from, int32(rng.Intn(slots))),
					Dst: key(to, int32(rng.Intn(slots))),
					Op:  op,
				})
			}
			p.Append(round)
		}

		refExec(nt, p, stores, r)
		real, err := nt.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(real); err != nil {
			t.Fatal(err)
		}
		m.ClearStaging()
		for v := 0; v < nV; v++ {
			for k, want := range stores[v] {
				got, ok := m.Get(host[v], k)
				if !ok || got != want {
					t.Fatalf("trial %d vnode %d key %v: got %v,%v want %v",
						trial, v, k, got, ok, want)
				}
			}
		}
	}
}
