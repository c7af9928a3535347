package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// oracleStatsErr holds a compiled run's Stats on p to the map engine's
// Stats of the same run: the same totals, RoundBytes and PeakStore, no
// loads of its own, and the map's per-node loads equal to p.NodeLoads.
func oracleStatsErr(p *Prepared, mapStats, compiled lbm.Stats) error {
	if compiled.SendLoad != nil || compiled.RecvLoad != nil {
		return fmt.Errorf("compiled run counted loads %v / %v", compiled.SendLoad, compiled.RecvLoad)
	}
	totals := mapStats
	totals.SendLoad, totals.RecvLoad = nil, nil
	if !reflect.DeepEqual(totals, compiled) {
		return fmt.Errorf("stats differ from the map oracle\n got %+v\nwant %+v", compiled, mapStats)
	}
	send, recv := p.NodeLoads()
	if !slices.Equal(send, mapStats.SendLoad) || !slices.Equal(recv, mapStats.RecvLoad) {
		return fmt.Errorf("map oracle loads %v / %v, NodeLoads %v / %v", mapStats.SendLoad, mapStats.RecvLoad, send, recv)
	}
	return nil
}

// TestNodeLoadsMatchExecutedStats pins the compile-time load profile against
// ground truth: the per-node send/receive counts NodeLoads derives from the
// compiled instruction streams must equal the SendLoad/RecvLoad an execution
// on the map engine records, and a compiled run of the same structure must
// charge the same totals without counting loads of its own. Loads are a
// function of structure only, so one value set suffices.
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
			if send, recv := prep.NodeLoads(); len(send) != inst.N || len(recv) != inst.N {
				t.Fatalf("load profile covers %d/%d nodes, the instance has %d", len(send), len(recv), inst.N)
			}
			a := matrix.Random(inst.Ahat, r, 1)
			b := matrix.Random(inst.Bhat, r, 2)
			_, mres, err := prep.inner.MultiplyMap(a, b)
			if err != nil {
				t.Fatalf("map multiply: %v", err)
			}
			_, rep, err := prep.Multiply(a, b)
			if err != nil {
				t.Fatalf("multiply: %v", err)
			}
			if err := oracleStatsErr(prep, mres.Stats, rep.Stats); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNodeLoadsEngineIndependent pins that the load profile is a property
// of the structure, not of the engine that walks it: the map oracle charges
// exactly the loads NodeLoads derives from the compiled instruction streams,
// a traced compiled walk's profile records them, and the one-shot
// core.Multiply reports them.
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
	if !slices.Equal(resMap.Stats.SendLoad, send) || !slices.Equal(resMap.Stats.RecvLoad, recv) {
		t.Fatalf("map engine charged %v / %v, profile says %v / %v", resMap.Stats.SendLoad, resMap.Stats.RecvLoad, send, recv)
	}
	_, traced, err := prep.MultiplyOpts(a, b, ExecOpts{Trace: true})
	if err != nil {
		t.Fatalf("traced compiled multiply: %v", err)
	}
	ps, pr := traced.Profile.SendLoad(), traced.Profile.RecvLoad()
	if !slices.Equal(ps, send[:len(ps)]) || !slices.Equal(pr, recv[:len(pr)]) {
		t.Fatalf("traced compiled walk profiled %v / %v, profile says %v / %v", ps, pr, send, recv)
	}
	_, one, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2})
	if err != nil {
		t.Fatalf("one-shot multiply: %v", err)
	}
	if !slices.Equal(one.Stats.SendLoad, send) || !slices.Equal(one.Stats.RecvLoad, recv) {
		t.Fatalf("core.Multiply reported %v / %v, profile says %v / %v", one.Stats.SendLoad, one.Stats.RecvLoad, send, recv)
	}
}
