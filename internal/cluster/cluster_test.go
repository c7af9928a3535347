package cluster

import (
	"math/rand"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/vnet"
)

func randomSupport(rng *rand.Rand, n, nnz int) *matrix.Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, entries)
}

func randomInstance(rng *rand.Rand, n, nnz int) *graph.Instance {
	return graph.NewInstance(n,
		randomSupport(rng, n, nnz), randomSupport(rng, n, nnz), randomSupport(rng, n, nnz))
}

func TestFindClusterDensePocket(t *testing.T) {
	// A complete d×d×d pocket plus noise: the greedy extraction must find a
	// cluster containing (a large part of) the pocket.
	n, d := 32, 4
	var ae, be, xe [][2]int
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			ae = append(ae, [2]int{i, j})
			be = append(be, [2]int{j, i}) // all pairs within [0,d)
			xe = append(xe, [2]int{i, j})
		}
	}
	// Noise far away.
	rng := rand.New(rand.NewSource(3))
	for l := 0; l < 10; l++ {
		ae = append(ae, [2]int{d + rng.Intn(n-d), d + rng.Intn(n-d)})
	}
	inst := graph.NewInstance(n,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
	tris := inst.Triangles()
	pocket := d * d * d
	if len(tris) < pocket {
		t.Fatalf("construction: %d triangles < pocket %d", len(tris), pocket)
	}
	got, ok := FindCluster(tris, n, d, nil)
	if !ok {
		t.Fatal("no cluster found")
	}
	if len(got.Tris) < pocket/2 {
		t.Errorf("greedy cluster has %d of %d pocket triangles", len(got.Tris), pocket)
	}
	if !got.Cluster.Valid(d) {
		t.Error("cluster is not valid")
	}
}

func TestExtractBatchDisjointAndConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, d := 24, 3
	inst := randomInstance(rng, n, 5*n)
	tris := inst.Triangles()
	batch, rest := ExtractBatch(tris, n, d, 1)
	// Clusters pairwise disjoint per side.
	seenI := map[int32]bool{}
	seenJ := map[int32]bool{}
	seenK := map[int32]bool{}
	total := 0
	for _, a := range batch.Clusters {
		if !a.Cluster.Valid(d) {
			t.Fatal("invalid cluster in batch")
		}
		for _, v := range a.Cluster.I {
			if seenI[v] {
				t.Fatal("I nodes overlap across clusters")
			}
			seenI[v] = true
		}
		for _, v := range a.Cluster.J {
			if seenJ[v] {
				t.Fatal("J nodes overlap")
			}
			seenJ[v] = true
		}
		for _, v := range a.Cluster.K {
			if seenK[v] {
				t.Fatal("K nodes overlap")
			}
			seenK[v] = true
		}
		total += len(a.Tris)
	}
	if total+len(rest) != len(tris) {
		t.Fatalf("batch loses triangles: %d + %d != %d", total, len(rest), len(tris))
	}
	if batch.Size() != total {
		t.Error("Size() wrong")
	}
	// Assigned sets and residual must partition tris (no duplicates).
	seen := map[graph.Triangle]int{}
	for _, a := range batch.Clusters {
		for _, tr := range a.Tris {
			seen[tr]++
		}
	}
	for _, tr := range rest {
		seen[tr]++
	}
	for tr, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("triangle %v appears %d times", tr, cnt)
		}
	}
}

func TestPartitionTerminatesAndPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d := 30, 3
	inst := randomInstance(rng, n, 6*n)
	tris := inst.Triangles()
	batches, rest := Partition(tris, n, d, PartitionOpts{MinGain: 2, TargetResidual: 0})
	total := len(rest)
	for _, b := range batches {
		total += b.Size()
	}
	if total != len(tris) {
		t.Fatalf("partition loses triangles: %d != %d", total, len(tris))
	}
	// With MinGain 2, every cluster in every batch carries ≥ 2 triangles.
	for _, b := range batches {
		for _, a := range b.Clusters {
			if len(a.Tris) < 2 {
				t.Fatal("undersized cluster accepted")
			}
		}
	}
	// MaxBatches honoured.
	b1, _ := Partition(tris, n, d, PartitionOpts{MinGain: 1, TargetResidual: 0, MaxBatches: 1})
	if len(b1) > 1 {
		t.Error("MaxBatches ignored")
	}
}

func TestMaskProductExact(t *testing.T) {
	// Exact: a full pocket.
	var tris []graph.Triangle
	for i := int32(0); i < 2; i++ {
		for j := int32(0); j < 2; j++ {
			for k := int32(0); k < 2; k++ {
				tris = append(tris, graph.Triangle{I: i, J: j, K: k})
			}
		}
	}
	if !maskProductExact(Assigned{Tris: tris}) {
		t.Error("full pocket must be exact")
	}
	// Dropping one triangle whose pairs all remain active breaks exactness.
	if maskProductExact(Assigned{Tris: tris[:len(tris)-1]}) {
		t.Error("punctured pocket must be inexact")
	}
	// A single triangle is exact.
	if !maskProductExact(Assigned{Tris: tris[:1]}) {
		t.Error("singleton must be exact")
	}
}

// TestRunBatchesCorrect processes the FULL triangle set of an instance
// purely with clustered batches (TargetResidual 0, MinGain 1 — every
// triangle ends in some cluster or remains), each planned and then run, and
// checks that exactly the batched triangles were processed.
func TestRunBatchesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, r := range []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.NewGFp(1009), ring.Real{}} {
		for trial := 0; trial < 3; trial++ {
			n := 18
			d := 3
			inst := randomInstance(rng, n, 4*n)
			tris := inst.Triangles()
			batches, rest := Partition(tris, n, d, PartitionOpts{MinGain: 1, TargetResidual: 0})

			a := matrix.Random(inst.Ahat, r, int64(trial))
			b := matrix.Random(inst.Bhat, r, int64(trial+9))
			m := lbm.New(n, r)
			l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
			lbm.LoadInputs(m, l, a, b)
			lbm.ZeroOutputs(m, l, inst.Xhat)
			net := vnet.Roles(n)
			_, field := ring.AsField(r)
			for _, bt := range batches {
				pb, err := PlanBatch(net, n, l, bt, field)
				if err != nil {
					t.Fatal(err)
				}
				if err := pb.Emit(m); err != nil {
					t.Fatal(err)
				}
			}
			m.ClearStaging()
			// Expected: only the batched triangles processed.
			want := matrix.NewSparse(n, r)
			for i := range inst.Xhat.N {
				for _, k := range inst.Xhat.Row(i) {
					want.Set(i, int(k), r.Zero())
				}
			}
			for _, bt := range batches {
				for _, as := range bt.Clusters {
					for _, tr := range as.Tris {
						want.Add(int(tr.I), int(tr.K), r.Mul(a.Get(int(tr.I), int(tr.J)), b.Get(int(tr.J), int(tr.K))))
					}
				}
			}
			got, err := lbm.CollectX(m, l, inst.Xhat)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want) {
				t.Fatalf("%s: clustered batches processed wrong set (rest=%d)", r.Name(), len(rest))
			}
		}
	}
}

func TestRunBatchUsesStrassenOverFields(t *testing.T) {
	// First batch over a field: its clusters' mask products are exact by
	// construction, so at least one Strassen cluster should appear when a
	// dense pocket exists.
	n, d := 16, 4
	var ae, be, xe [][2]int
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			ae = append(ae, [2]int{i, j})
			be = append(be, [2]int{i, j})
			xe = append(xe, [2]int{i, j})
		}
	}
	inst := graph.NewInstance(n,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
	tris := inst.Triangles()
	batch, _ := ExtractBatch(tris, n, d, 1)
	if len(batch.Clusters) == 0 {
		t.Fatal("no clusters extracted")
	}

	r := ring.NewGFp(997)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	m := lbm.New(n, r)
	l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	net := vnet.Roles(n)
	pb, err := PlanBatch(net, n, l, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Emit(m); err != nil {
		t.Fatal(err)
	}
	if pb.Stats.StrassenClusters == 0 {
		t.Error("field batch used no Strassen clusters")
	}
	m.ClearStaging()
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewSparse(n, r)
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			want.Set(i, int(k), r.Zero())
		}
	}
	for _, as := range batch.Clusters {
		for _, tr := range as.Tris {
			want.Add(int(tr.I), int(tr.K), r.Mul(a.Get(int(tr.I), int(tr.J)), b.Get(int(tr.J), int(tr.K))))
		}
	}
	if !matrix.Equal(got, want) {
		t.Fatal("strassen batch computed wrong products")
	}
}
