package core

import (
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestNodeLoadsMatchExecutedStats pins the compile-time load profile against
// ground truth: the per-node send/receive counts NodeLoads derives from the
// compiled instruction streams must equal the SendLoad/RecvLoad an actual
// execution records. Loads are a function of structure only, so one value
// set suffices.
func TestNodeLoadsMatchExecutedStats(t *testing.T) {
	for _, tc := range []struct {
		alg string
		wl  string
	}{
		{"lemma31", "blocks"},
		{"lemma31", "powerlaw"},
		{"theorem42", "blocks"},
		{"theorem42", "powerlaw"},
	} {
		t.Run(tc.alg+"/"+tc.wl, func(t *testing.T) {
			inst := workload.Blocks(32, 3)
			if tc.wl == "powerlaw" {
				inst = workload.PowerLaw(32, 3, 42)
			}
			r := ring.Counting{}
			prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{
				Ring: r, D: 3, Algorithm: tc.alg,
			})
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			send, recv := prep.NodeLoads()
			if send == nil || recv == nil {
				t.Fatal("compiled plan reports no load profile")
			}
			a := matrix.Random(inst.Ahat, r, 1)
			b := matrix.Random(inst.Bhat, r, 2)
			_, rep, err := prep.Multiply(a, b)
			if err != nil {
				t.Fatalf("multiply: %v", err)
			}
			if len(send) != len(rep.Stats.SendLoad) || len(recv) != len(rep.Stats.RecvLoad) {
				t.Fatalf("load profile covers %d/%d nodes, execution recorded %d/%d",
					len(send), len(recv), len(rep.Stats.SendLoad), len(rep.Stats.RecvLoad))
			}
			for v := range send {
				if send[v] != rep.Stats.SendLoad[v] {
					t.Errorf("node %d: profiled send load %d, executed %d", v, send[v], rep.Stats.SendLoad[v])
				}
				if recv[v] != rep.Stats.RecvLoad[v] {
					t.Errorf("node %d: profiled recv load %d, executed %d", v, recv[v], rep.Stats.RecvLoad[v])
				}
			}
		})
	}
}

// TestNodeLoadsEngineIndependent pins that the load profile is a property
// of the structure, not of the engine that walks it: the map oracle and the
// compiled walk both charge exactly the loads NodeLoads derives from the
// compiled instruction streams.
func TestNodeLoadsEngineIndependent(t *testing.T) {
	inst := workload.Blocks(16, 2)
	r := ring.Counting{}
	prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: 2})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	send, recv := prep.NodeLoads()
	if send == nil || recv == nil {
		t.Fatal("compiled plan reports no load profile")
	}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	_, resMap, err := prep.inner.MultiplyMap(a, b)
	if err != nil {
		t.Fatalf("map multiply: %v", err)
	}
	_, repComp, err := prep.Multiply(a, b)
	if err != nil {
		t.Fatalf("compiled multiply: %v", err)
	}
	for v := range send {
		if resMap.Stats.SendLoad[v] != send[v] || resMap.Stats.RecvLoad[v] != recv[v] {
			t.Fatalf("node %d: map engine charged (%d,%d), profile says (%d,%d)",
				v, resMap.Stats.SendLoad[v], resMap.Stats.RecvLoad[v], send[v], recv[v])
		}
		if repComp.Stats.SendLoad[v] != send[v] || repComp.Stats.RecvLoad[v] != recv[v] {
			t.Fatalf("node %d: compiled walk charged (%d,%d), profile says (%d,%d)",
				v, repComp.Stats.SendLoad[v], repComp.Stats.RecvLoad[v], send[v], recv[v])
		}
	}
}
