package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"lbmm/internal/algo"
	"lbmm/internal/dist"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// DiffConfig sizes a differential run.
type DiffConfig struct {
	// Cases is the number of randomized (structure, ring, fault plan)
	// cases; 0 means 200 (the acceptance floor).
	Cases int
	// Seed keys every random choice; equal seeds replay equal runs.
	Seed int64
	// Log, when non-nil, receives one line per case (the CLI's -v).
	Log func(format string, args ...any)
}

// DiffResult summarizes a differential run.
type DiffResult struct {
	// Cases is the number of cases executed.
	Cases int
	// Clean counts fault-free executions that agreed across engines and
	// matched the sequential reference product (every case contributes one).
	Clean int
	// Faulted counts armed cases where both engines detected the identical
	// typed fault.
	Faulted int
	// Survived counts armed cases whose injector never struck (low rates or
	// a missed window); their outputs still had to agree.
	Survived int
	// FaultsByKind tallies the detected faults by kind name.
	FaultsByKind map[string]int
	// Failures lists every differential violation, human-readably. A clean
	// harness run has none.
	Failures []string
}

// OK reports whether the run found no differential violations.
func (r *DiffResult) OK() bool { return len(r.Failures) == 0 }

// Summary renders the run one screen high.
func (r *DiffResult) Summary() string {
	s := fmt.Sprintf("chaos differential: %d cases — %d clean, %d faulted identically, %d survived injection (each across direct, loopback and tcp-mesh transports)",
		r.Cases, r.Clean, r.Faulted, r.Survived)
	if len(r.FaultsByKind) > 0 {
		s += "\nfaults by kind:"
		for _, k := range []lbm.FaultKind{lbm.FaultDrop, lbm.FaultDuplicate, lbm.FaultCorrupt, lbm.FaultDelay, lbm.FaultStraggle} {
			if c := r.FaultsByKind[k.String()]; c > 0 {
				s += fmt.Sprintf(" %s=%d", k, c)
			}
		}
	}
	if !r.OK() {
		s += fmt.Sprintf("\nFAILURES (%d):", len(r.Failures))
		for _, f := range r.Failures {
			s += "\n  " + f
		}
	}
	return s
}

// diffCase is one randomized draw: a prepared structure, values, and an
// armed-or-quiet fault plan. as/bs are the batched lanes (lane 0 is a/b; the
// extra lanes exercise the lane-strided walk against per-lane references).
type diffCase struct {
	label  string
	prep   *algo.Prepared
	a, b   *matrix.Sparse
	as, bs []*matrix.Sparse
	plan   FaultPlan
	armed  bool
}

// Differential runs the chaos differential harness: every case first
// executes fault-free on the map oracle and the compiled engine (outputs
// must agree with each other and with the sequential reference product),
// then — when armed — re-executes both engines under one shared injector
// and requires either a clean survival with agreeing outputs or the
// identical typed lbm.ErrFault (same kind, same network round, same node)
// from both. Fault-free replays after a fault check that a detection leaves
// no state behind (the compiled engine recycles pooled executors). It is
// the map oracle's one program caller, and it plans every case fresh
// (algo.Prepare*), so the oracle always has the plans it runs: a form
// decoded from a plan store has none.
//
// The harness also spans the transport axis: each case re-runs the compiled
// engine through the loopback seam and across a three-participant localhost
// TCP mesh (one shared trio of dist.Mesh endpoints, reused for every case —
// faults strike before any frame leaves a sender, so a detection leaves the
// sockets clean). Products, merged statistics and typed fault provenance
// must all be identical to the nil-transport engines. A batched leg widens
// the same plan to three value-set lanes and requires the single lane-strided
// walk — nil transport, loopback and mesh alike — to reproduce every lane's
// scalar product exactly.
func Differential(cfg DiffConfig) *DiffResult {
	cases := cfg.Cases
	if cases <= 0 {
		cases = 200
	}
	res := &DiffResult{FaultsByKind: map[string]int{}}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	meshes, stop, err := dist.NewLocalMesh(3)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("transport axis: local mesh: %v", err))
		meshes = nil
	} else {
		defer stop()
	}
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
		dc, err := drawCase(c, rng)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("case %d (%s): draw: %v", c, dc.label, err))
			continue
		}
		res.Cases++
		runCase(res, c, dc, meshes, logf)
	}
	return res
}

// drawCase randomizes one case: structure family and size, ring, algorithm,
// values, and a fault plan (quiet for 1 case in 5).
func drawCase(c int, rng *rand.Rand) (*diffCase, error) {
	ns := []int{16, 24, 32}
	ds := []int{2, 3}
	n := ns[rng.Intn(len(ns))]
	d := ds[rng.Intn(len(ds))]
	rings := []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.Real{}, ring.NewGFp(1009)}
	r := rings[rng.Intn(len(rings))]

	structSeed := rng.Int63()
	var inst = workload.Mixed(n, d, structSeed)
	family := "mixed"
	switch rng.Intn(3) {
	case 0:
		inst = workload.Blocks(n, d)
		family = "blocks"
	case 1:
		inst = workload.PowerLaw(n, d, structSeed)
		family = "powerlaw"
	}

	var prep *algo.Prepared
	var err error
	algName := [...]string{"trivial", "lemma31", "theorem42"}[rng.Intn(3)]
	switch algName {
	case "trivial":
		prep, err = algo.PrepareTrivial(r, inst)
	case "lemma31":
		prep, err = algo.PrepareLemma31(r, inst)
	default:
		prep, err = algo.PrepareTheorem42(r, inst)
	}
	dc := &diffCase{
		label: fmt.Sprintf("%s/n%d/d%d/%s/%s", family, n, d, r.Name(), algName),
	}
	if err != nil {
		return dc, err
	}
	dc.prep = prep
	dc.a = matrix.Random(prep.Inst.Ahat, r, rng.Int63())
	dc.b = matrix.Random(prep.Inst.Bhat, r, rng.Int63())
	dc.as, dc.bs = []*matrix.Sparse{dc.a}, []*matrix.Sparse{dc.b}
	for l := 1; l < 3; l++ {
		dc.as = append(dc.as, matrix.Random(prep.Inst.Ahat, r, rng.Int63()))
		dc.bs = append(dc.bs, matrix.Random(prep.Inst.Bhat, r, rng.Int63()))
	}
	dc.plan, dc.armed = drawPlan(rng, prep.Inst.N)
	return dc, nil
}

// drawPlan randomizes a fault plan over the profiles the harness covers:
// quiet, one emphasized kind, mixed low rates, a guaranteed-strike round
// override, and straggler masks.
func drawPlan(rng *rand.Rand, n int) (FaultPlan, bool) {
	p := FaultPlan{Seed: rng.Int63()}
	switch rng.Intn(6) {
	case 0: // quiet: the armed path must be inert
		return p, false
	case 1: // one kind, low rate
		rate := 0.002 + 0.05*rng.Float64()
		switch rng.Intn(4) {
		case 0:
			p.Drop = rate
		case 1:
			p.Duplicate = rate
		case 2:
			p.Corrupt = rate
		case 3:
			p.Delay = rate
		}
	case 2: // mixed low rates
		p.Drop = 0.01 * rng.Float64()
		p.Duplicate = 0.01 * rng.Float64()
		p.Corrupt = 0.01 * rng.Float64()
		p.Delay = 0.01 * rng.Float64()
	case 3: // guaranteed strike in one scheduled round
		p.Rounds = []RoundRates{{Round: rng.Intn(8), Rates: Rates{Drop: 1}}}
	case 4: // straggler mask over a short window
		p.Stragglers = []Straggler{{
			Node: lbm.NodeID(rng.Intn(n)),
			From: rng.Intn(6),
			To:   0, // single round
		}}
	case 5: // windowed plan-wide rates
		p.Drop = 0.2
		p.FromRound = rng.Intn(4)
		p.ToRound = p.FromRound + 1 + rng.Intn(3)
	}
	return p, true
}

// machineOpts lowers an optional injector and transport to machine options.
func machineOpts(inj lbm.Injector, t lbm.Transport) []lbm.Option {
	var mopts []lbm.Option
	if inj != nil {
		mopts = append(mopts, lbm.WithInjector(inj))
	}
	if t != nil {
		mopts = append(mopts, lbm.WithTransport(t))
	}
	return mopts
}

// runMap executes the map oracle on the case's scalar lane under an
// optional injector.
func runMap(dc *diffCase, inj lbm.Injector) (*matrix.Sparse, error) {
	x, _, err := dc.prep.MultiplyMap(dc.a, dc.b, machineOpts(inj, nil)...)
	return x, err
}

// runLanes executes the compiled walk on the given lanes — one for the
// scalar phases, the case's three for the batched one — under an optional
// injector and transport.
func runLanes(dc *diffCase, as, bs []*matrix.Sparse, inj lbm.Injector, t lbm.Transport) ([]*matrix.Sparse, lbm.Stats, error) {
	xs, res, err := dc.prep.MultiplyBatch(as, bs, machineOpts(inj, t)...)
	if err != nil {
		return nil, lbm.Stats{}, err
	}
	return xs, res.Stats, nil
}

// runMeshLanes executes the compiled walk on every rank of the TCP trio at
// once (the injector is a read-only hash, safe to share). It returns either
// the products merged lane for lane from the disjoint per-rank partials and
// the merged statistics, or — when every rank detected the identical typed
// fault — that fault. Divergent verdicts across ranks are a differential
// violation and come back as an untyped error.
func runMeshLanes(dc *diffCase, meshes []*dist.Mesh, as, bs []*matrix.Sparse, inj lbm.Injector) ([]*matrix.Sparse, lbm.Stats, error) {
	n := len(meshes)
	outs := make([][]*matrix.Sparse, n)
	stats := make([]lbm.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rk := range meshes {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			outs[rk], stats[rk], errs[rk] = runLanes(dc, as, bs, inj, meshes[rk])
		}(rk)
	}
	wg.Wait()

	if errs[0] != nil {
		f0, ok := lbm.AsFault(errs[0])
		for rk := 1; rk < n; rk++ {
			f, okk := lbm.AsFault(errs[rk])
			if !ok || !okk || *f != *f0 {
				return nil, lbm.Stats{}, fmt.Errorf("mesh ranks diverged: rank 0 %v, rank %d %v", errs[0], rk, errs[rk])
			}
		}
		return nil, lbm.Stats{}, errs[0]
	}
	for rk := 1; rk < n; rk++ {
		if errs[rk] != nil {
			return nil, lbm.Stats{}, fmt.Errorf("mesh ranks diverged: rank 0 clean, rank %d %v", rk, errs[rk])
		}
	}
	merged := make([]*matrix.Sparse, len(as))
	for l := range merged {
		merged[l] = matrix.NewSparse(dc.a.N, dc.a.R)
	}
	for _, xs := range outs {
		for l, x := range xs {
			for i, row := range x.Rows {
				for _, c := range row {
					merged[l].Set(i, int(c.Col), c.Val)
				}
			}
		}
	}
	return merged, lbm.MergeStats(stats...), nil
}

// runCase executes the differential protocol for one case, appending any
// violation to res.Failures.
func runCase(res *DiffResult, c int, dc *diffCase, meshes []*dist.Mesh, logf func(string, ...any)) {
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("case %d (%s): %s", c, dc.label, fmt.Sprintf(format, args...)))
	}

	// Phase 1: fault-free differential (also the reference for replays).
	want := matrix.MulReference(dc.a, dc.b, dc.prep.Inst.Xhat)
	a1, b1 := dc.as[:1], dc.bs[:1] // the scalar lane as a one-lane batch
	xMap, errMap := runMap(dc, nil)
	xComp, stComp, errComp := runLanes(dc, a1, b1, nil, nil)
	if errMap != nil || errComp != nil {
		fail("fault-free run errored: map=%v compiled=%v", errMap, errComp)
		return
	}
	if !matrix.Equal(xMap, want) {
		fail("map engine product differs from the sequential reference")
		return
	}
	if !matrix.Equal(xComp[0], want) {
		fail("compiled engine product differs from the sequential reference")
		return
	}
	res.Clean++

	// Phase 1b: the transport axis, fault-free. Loopback must be
	// bit-identical to the nil-transport engine — product and Stats both —
	// and a partitioned TCP mesh run must merge back to the same product
	// and the same Stats.
	xLoop, stLoop, errLoop := runLanes(dc, a1, b1, nil, &lbm.Loopback{})
	if errLoop != nil {
		fail("loopback run errored: %v", errLoop)
		return
	}
	if !matrix.Equal(xLoop[0], want) {
		fail("loopback product differs from the sequential reference")
		return
	}
	if !reflect.DeepEqual(stLoop, stComp) {
		fail("loopback stats differ from the nil-transport stats: %+v vs %+v", stLoop, stComp)
		return
	}
	if meshes != nil {
		xTCP, stTCP, errTCP := runMeshLanes(dc, meshes, a1, b1, nil)
		if errTCP != nil {
			fail("tcp mesh run errored: %v", errTCP)
			return
		}
		if !matrix.Equal(xTCP[0], want) {
			fail("tcp mesh product differs from the sequential reference")
			return
		}
		if !reflect.DeepEqual(stTCP, stComp) {
			fail("merged tcp stats differ from the nil-transport stats: %+v vs %+v", stTCP, stComp)
			return
		}
	}

	// Phase 1c: batched lanes. One k-lane walk through the shared plan must
	// be bit-identical, lane for lane, to k scalar runs — the per-lane
	// products equal the per-lane sequential references (which phases 1 and
	// 1b pinned to the scalar engine and transport runs), and the loopback
	// and merged mesh statistics equal the nil-transport batched walk's.
	wants := make([]*matrix.Sparse, len(dc.as))
	wants[0] = want
	for l := 1; l < len(dc.as); l++ {
		wants[l] = matrix.MulReference(dc.as[l], dc.bs[l], dc.prep.Inst.Xhat)
	}
	xsB, stB, errB := runLanes(dc, dc.as, dc.bs, nil, nil)
	if errB != nil {
		fail("batched run errored: %v", errB)
		return
	}
	for l, x := range xsB {
		if !matrix.Equal(x, wants[l]) {
			fail("batched lane %d differs from its scalar reference", l)
			return
		}
	}
	xsBL, stBL, errBL := runLanes(dc, dc.as, dc.bs, nil, &lbm.Loopback{})
	if errBL != nil {
		fail("batched loopback run errored: %v", errBL)
		return
	}
	for l, x := range xsBL {
		if !matrix.Equal(x, wants[l]) {
			fail("batched loopback lane %d differs from its scalar reference", l)
			return
		}
	}
	if !reflect.DeepEqual(stBL, stB) {
		fail("batched loopback stats differ from the nil-transport batched stats: %+v vs %+v", stBL, stB)
		return
	}
	if meshes != nil {
		xsBM, stBM, errBM := runMeshLanes(dc, meshes, dc.as, dc.bs, nil)
		if errBM != nil {
			fail("batched tcp mesh run errored: %v", errBM)
			return
		}
		for l, x := range xsBM {
			if !matrix.Equal(x, wants[l]) {
				fail("batched tcp mesh lane %d differs from its scalar reference", l)
				return
			}
		}
		if !reflect.DeepEqual(stBM, stB) {
			fail("merged batched tcp stats differ from the nil-transport batched stats: %+v vs %+v", stBM, stB)
			return
		}
	}

	if !dc.armed && dc.plan.Quiet() {
		// Quiet plans still exercise the injector seam: verdicts must all be
		// clean and the products unchanged.
		inj := dc.plan.MustInjector()
		if xs, _, err := runLanes(dc, a1, b1, inj, nil); err != nil || !matrix.Equal(xs[0], want) {
			fail("quiet injector perturbed the compiled engine: err=%v", err)
		}
		return
	}

	// Phase 2: the armed differential under one shared injector.
	inj := dc.plan.MustInjector()
	xMapF, errMapF := runMap(dc, inj)
	xCompF, _, errCompF := runLanes(dc, a1, b1, inj, nil)
	switch {
	case errMapF == nil && errCompF == nil:
		if !matrix.Equal(xMapF, want) || !matrix.Equal(xCompF[0], want) {
			fail("injection survived but a product changed")
			return
		}
		res.Survived++
	case errMapF != nil && errCompF != nil:
		fm, okm := lbm.AsFault(errMapF)
		fc, okc := lbm.AsFault(errCompF)
		if !okm || !okc {
			fail("untyped failure under injection: map=%v compiled=%v", errMapF, errCompF)
			return
		}
		if *fm != *fc {
			fail("engines detected different faults: map=%+v compiled=%+v", fm, fc)
			return
		}
		res.Faulted++
		res.FaultsByKind[fm.Kind.String()]++
		logf("case %d (%s): both engines detected %v at round %d node %d", c, dc.label, fm.Kind, fm.Round, fm.Node)
	default:
		fail("engines disagree on whether a fault struck: map=%v compiled=%v", errMapF, errCompF)
		return
	}

	// Phase 2b: the armed transport axis under the same plan. The loopback
	// run and every rank of the mesh must reach the identical verdict —
	// the same typed fault as the nil-transport engines, or a survival
	// with the reference product.
	xLoopF, _, errLoopF := runLanes(dc, a1, b1, inj, &lbm.Loopback{})
	if !sameVerdict(errCompF, errLoopF) {
		fail("loopback verdict differs under injection: plain=%v loopback=%v", errCompF, errLoopF)
		return
	}
	if errLoopF == nil && !matrix.Equal(xLoopF[0], want) {
		fail("loopback survived injection but the product changed")
		return
	}
	if meshes != nil {
		xTCPF, _, errTCPF := runMeshLanes(dc, meshes, a1, b1, inj)
		if !sameVerdict(errCompF, errTCPF) {
			fail("tcp mesh verdict differs under injection: plain=%v tcp=%v", errCompF, errTCPF)
			return
		}
		if errTCPF == nil && !matrix.Equal(xTCPF[0], want) {
			fail("tcp mesh survived injection but the product changed")
			return
		}
	}

	// Phase 3: fault-free replay — a detection must leave no residue (the
	// compiled engine recycles pooled executors across calls).
	xMapR, errMapR := runMap(dc, nil)
	xCompR, _, errCompR := runLanes(dc, a1, b1, nil, nil)
	if errMapR != nil || errCompR != nil {
		fail("fault-free replay errored: map=%v compiled=%v", errMapR, errCompR)
		return
	}
	if !matrix.Equal(xMapR, want) || !matrix.Equal(xCompR[0], want) {
		fail("fault-free replay product differs after an injected run")
	}
}

// sameVerdict reports whether two runs agreed on the fault outcome: both
// clean, or both the identical typed fault.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	fa, oka := lbm.AsFault(a)
	fb, okb := lbm.AsFault(b)
	return oka && okb && *fa == *fb
}
