package core

import (
	"bytes"
	"cmp"
	"runtime"
	"slices"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestWarmMultiplyAllocs pins what a warm run of a prepared plan allocates
// at n=256, d=4 (BenchmarkMultiplyUS256's structure), the executor coming
// from its pool. MultiplyValues into caller buffers allocates its report
// only: the Result, the core.Report around it and the RoundBytes copy.
// Multiply adds the product matrix and the one-lane batch around its
// operands. Neither copies per-node loads, which are NodeLoads, nor
// allocates to configure the pooled executor. MultiplyValues allocates its
// report only whatever the lanes and the plan — at k=16 lanes, and on
// Theorem 4.2's phase-1 cube and Strassen batches (blocks(32,4)): the lane
// and leaf-block scratch belong to the executor.
func TestWarmMultiplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop executors")
	}
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	as, bs := [][]ring.Value{listed(a, inst.Ahat)}, [][]ring.Value{listed(b, inst.Bhat)}
	xs := [][]ring.Value{make([]ring.Value, inst.Xhat.NNZ)}
	blocks := workload.Blocks(32, 4)
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"MultiplyValues at n=256", warmValuesAllocs, func() error {
			_, err := prep.MultiplyValues(as, bs, xs, ExecOpts{})
			return err
		}},
		{"Multiply at n=256", warmMultiplyAllocs, func() error {
			_, _, err := prep.Multiply(a, b)
			return err
		}},
		{"MultiplyValues at n=256, k=16", warmValuesAllocs, warmLanes(t, prep, inst, r, 16)},
		{"theorem42 on blocks(32,4) over GF(1009), k=16", warmValuesAllocs,
			warmLanes(t, prepareClusters(t, blocks, ring.NewGFp(1009), false), blocks, ring.NewGFp(1009), 16)},
		{"theorem42 on blocks(32,4) over counting, k=16", warmValuesAllocs,
			warmLanes(t, prepareClusters(t, blocks, r, true), blocks, r, 16)},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("warm %s: %.1f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("warm %s: %.1f allocations, want at most %v", tc.name, allocs, tc.max)
		}
	}
	want, _, err := prep.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := listed(want, inst.Xhat); !slices.Equal(got, xs[0]) {
		t.Fatal("MultiplyValues wrote a product other than Multiply's")
	}
}

// TestDecodedFirstMultiplyAllocs pins that executors belong to the
// machine, not the plan: in a process that has multiplied at n=256 before,
// the first MultiplyValues of a plan just decoded from its envelope
// allocates exactly what a warm plan's does (warmValuesAllocs), though each
// decoded plan is new to the pool and every other call runs another
// structure, so every call re-lays the executor it takes.
func TestDecodedFirstMultiplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop executors")
	}
	r := ring.Counting{}
	type plan struct {
		prep       *Prepared
		as, bs, xs [][]ring.Value
	}
	plans := make([]plan, 2)
	for k := range plans {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, int64(k+1))
		prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: 4})
		if err != nil {
			t.Fatal(err)
		}
		a, b := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
		plans[k] = plan{prep, [][]ring.Value{listed(a, inst.Ahat)}, [][]ring.Value{listed(b, inst.Bhat)},
			[][]ring.Value{make([]ring.Value, inst.Xhat.NNZ)}}
		if _, err := prep.MultiplyValues(plans[k].as, plans[k].bs, plans[k].xs, ExecOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	var env bytes.Buffer
	if err := plans[0].prep.Encode(&env); err != nil {
		t.Fatal(err)
	}
	const decodes = 20
	decoded := make([]*Prepared, decodes)
	for i := range decoded {
		var err error
		if decoded[i], err = DecodePrepared(bytes.NewReader(env.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Clone(plans[0].xs[0])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Finish the collection the decodes may have started, which would
	// otherwise empty the pools partway through the loop. The executor
	// survives it in its pool's victim cache; one run takes it back and
	// rebuilds the pool's per-processor table before the count starts.
	runtime.GC()
	o := plans[1]
	if _, err := o.prep.MultiplyValues(o.as, o.bs, o.xs, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range decoded {
		if _, err := q.MultiplyValues(plans[0].as, plans[0].bs, plans[0].xs, ExecOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := o.prep.MultiplyValues(o.as, o.bs, o.xs, ExecOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Whole allocations per call, as testing.AllocsPerRun counts them: the
	// runtime's own work after the collection above adds a stray few to
	// the total now and then, where an executor built for each decoded
	// plan adds over a hundred per call.
	allocs := (after.Mallocs - before.Mallocs) / (2 * decodes)
	t.Logf("first MultiplyValues of a decoded plan at n=256, alternating with another plan: %d allocations", allocs)
	if allocs != warmValuesAllocs {
		t.Errorf("first MultiplyValues of a decoded plan at n=256: %d allocations, want %d as warm", allocs, warmValuesAllocs)
	}
	if !slices.Equal(plans[0].xs[0], want) {
		t.Error("a decoded plan wrote a product other than its source's")
	}
}

// The bounds of TestWarmMultiplyAllocs.
const (
	warmValuesAllocs   = 3
	warmMultiplyAllocs = 9
)

// TestPrepareAutoAllocs pins what an auto Prepare of
// BenchmarkPrepareAutoUS256's structure allocates: a plan cache miss with
// no plan store behind it. Auto prices the trivial candidate off its plan's
// h-relation degrees and Lemma 3.1, alone and as Theorem 4.2's phase 2, from
// counts without planning it, and colours and lowers only the kept one, into
// one slot index. Colouring every candidate, with one slot map per node,
// took 2,264 allocations; with the trivial plan's fetches deduplicated by
// sorting instead of a map, 284; with the load slots numbered into one slab
// sized from the live cells instead of grown per support, 259; with the
// layout owning its cells by rule instead of by a slab per support, 257;
// with the slot index one flat table sized for two keys per node instead of
// a Go map, and the staging sweep and dead-cell guard walking only the keys
// they need, 231; with Lemma 3.1 priced from counts instead of planned, and
// the load slots numbered from the planner's own triangle walk, 146; with
// the planners working from the walk's cell positions (counted fetches and
// routing arrays, loads slotted by position, a slot index for the staged
// copies only, sized from the plan), this reads 114.
func TestPrepareAutoAllocs(t *testing.T) {
	prepareAllocs(t, "US n=256, d=4", workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1), "", prepareAutoAllocs)
}

// TestPrepareTrivialAllocs pins the trivial Prepare of
// BenchmarkPrepareUS256, the plan auto keeps on that structure with no
// other candidate priced. Under the Go map slot index it read 148; then
// 122; with the load slots numbered from the planner's triangle walk instead
// of a second walk, 120; with its fetches deduplicated by a counting pass
// over cell positions and its loads slotted by position, it reads 88.
func TestPrepareTrivialAllocs(t *testing.T) {
	prepareAllocs(t, "US n=256, d=4", workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1), "trivial", prepareTrivialAllocs)
}

// TestPrepareAutoBlocks64Allocs pins the auto Prepare of
// BenchmarkPrepareAutoBlocks64, which plans Theorem 4.2's cube batches and
// lowers them through vnet to price them, then keeps the trivial plan. With
// every virtual message copied from its own struct type into the
// scheduler's and back it read 4,946; scheduled as lbm.Send throughout,
// 4,442; with the planners working from cell positions, it reads 4,381.
func TestPrepareAutoBlocks64Allocs(t *testing.T) {
	prepareAllocs(t, "Blocks(64, 8)", workload.Blocks(64, 8), "", prepareAutoBlocksAllocs)
}

// TestPrepareMixed256Allocs pins the trivial Prepare of
// BenchmarkPrepareMixed256: one fetch h-relation of 18,230 triangles. It
// read 193; with the fetches deduplicated by a counting pass over cell
// positions instead of a sort, and the loads slotted by position, it reads
// 107.
func TestPrepareMixed256Allocs(t *testing.T) {
	prepareAllocs(t, "Mixed(256, 8, 1)", workload.Mixed(256, 8, 1), "trivial", prepareMixedAllocs)
}

// prepareAllocs fails t when a Prepare of algorithm alg on inst, the
// structure called name, allocates more than bound times.
func prepareAllocs(t *testing.T, name string, inst *graph.Instance, alg string, bound int) {
	t.Helper()
	opts := Options{Ring: ring.Counting{}, D: inst.D, Algorithm: alg}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts); err != nil {
			t.Fatal(err)
		}
	})
	alg = cmp.Or(alg, "auto")
	t.Logf("%s Prepare of %s: %.0f allocations", alg, name, allocs)
	if allocs > float64(bound) {
		t.Errorf("%s Prepare of %s: %.0f allocations, want at most %d", alg, name, allocs, bound)
	}
}

// The bounds of the Prepare allocation pins, about 5% over what they read.
const (
	prepareAutoAllocs       = 120
	prepareTrivialAllocs    = 92
	prepareAutoBlocksAllocs = 4600
	prepareMixedAllocs      = 112
)

// prepareClusters prepares Theorem 4.2 on inst over r and checks phase 1
// keeps cube clusters only (cube) or some Strassen clusters.
func prepareClusters(t *testing.T, inst *graph.Instance, r ring.Semiring, cube bool) *Prepared {
	t.Helper()
	prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, Algorithm: "theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := prep.Multiply(matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Cluster; c.CubeClusters+c.StrassenClusters == 0 || (c.StrassenClusters == 0) != cube {
		t.Fatalf("theorem42 over %s keeps %d cube and %d Strassen clusters", r.Name(), c.CubeClusters, c.StrassenClusters)
	}
	return prep
}

// warmLanes returns a MultiplyValues of k random lanes on prep, a plan of
// inst over r, into buffers made once.
func warmLanes(t *testing.T, prep *Prepared, inst *graph.Instance, r ring.Semiring, k int) func() error {
	t.Helper()
	as, bs, xs := make([][]ring.Value, k), make([][]ring.Value, k), make([][]ring.Value, k)
	for l := range k {
		as[l] = listed(matrix.Random(inst.Ahat, r, int64(2*l+1)), inst.Ahat)
		bs[l] = listed(matrix.Random(inst.Bhat, r, int64(2*l+2)), inst.Bhat)
		xs[l] = make([]ring.Value, inst.Xhat.NNZ)
	}
	return func() error {
		_, err := prep.MultiplyValues(as, bs, xs, ExecOpts{})
		return err
	}
}

// listed returns m's values at the positions of sup in row-major order, a
// position m does not hold reading as zero.
func listed(m *matrix.Sparse, sup *matrix.Support) []ring.Value {
	var vals []ring.Value
	for i := range sup.N {
		for _, j := range sup.Row(i) {
			vals = append(vals, m.Get(i, int(j)))
		}
	}
	return vals
}

// TestPrepareBytesFollowInput holds what a Prepare allocates to its input
// on a structure whose A and B cells pair up many times over but close no
// triangle: Â = B̂ one dense 128×128 block at n=256, X̂ filling rows
// [128, 256). Its 2M pairs would size the planner's triangle lists at
// ~38 MB if the walk presized them by the pairs alone; against its ~65k
// support cells it reads ~340 kB.
func TestPrepareBytesFollowInput(t *testing.T) {
	const n, b = 256, 128
	var blk, out [][2]int
	for i := range b {
		for j := range b {
			blk = append(blk, [2]int{i, j})
		}
	}
	for i := b; i < n; i++ {
		for k := range n {
			out = append(out, [2]int{i, k})
		}
	}
	ahat, xhat := matrix.NewSupport(n, blk), matrix.NewSupport(n, out)
	cells := 2*ahat.NNZ + xhat.NNZ
	prepare := func() {
		if _, err := Prepare(ahat, ahat, xhat, Options{Ring: ring.Counting{}}); err != nil {
			t.Fatal(err)
		}
	}
	prepare()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prepare()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("auto Prepare of %d support cells closing no triangle: %d bytes", cells, got)
	if limit := uint64(32 * cells); got > limit {
		t.Errorf("auto Prepare allocated %d bytes for %d support cells, want at most %d", got, cells, limit)
	}
}
