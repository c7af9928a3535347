// Package algo assembles the paper's end-to-end algorithms from the
// building blocks:
//
//   - TrivialSparse — the O(d²)-round baseline for uniformly sparse
//     instances ([13]'s starting point): every triangle is processed at the
//     computer that owns its output element, after fetching the inputs.
//   - BaselineNaiveVirtual — a reconstruction of the prior work's second
//     phase: the same virtualization as Lemma 3.1 but with naive input
//     routing (hot values re-sent once per consumer, no anchors, no
//     broadcast trees). Its sender contention is what costs the prior work
//     the ε/2 in the exponent.
//   - LemmaOnly — Lemma 3.1 applied to the whole triangle set with the
//     natural budget; this is Theorems 5.3 and 5.11 (the O(d² + log n)
//     algorithms for [US:AS:GM] and [BD:AS:AS]).
//   - Theorem42 — the two-phase O(d^1.867)/O(d^1.832) algorithm: clustered
//     dense batches (phase 1) until the residual is small, then Lemma 3.1
//     (phase 2).
package algo

import (
	"fmt"
	"math"
	"sort"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/params"
	"lbmm/internal/ring"
	"lbmm/internal/routing"
	"lbmm/internal/vnet"
)

// Result summarizes one algorithm execution.
type Result struct {
	Name string
	// Engine names the execution engine that produced the result ("map" or
	// "compiled"); empty for algorithms without a prepared form.
	Engine string
	// Rounds is the total number of communication rounds.
	Rounds int
	// Phase1Rounds / Phase2Rounds split Theorem 4.2's budget (zero for
	// single-phase algorithms).
	Phase1Rounds, Phase2Rounds int
	// Batches is the number of clusterings L used by phase 1.
	Batches int
	// Cluster reports how the clustered batches were executed.
	Cluster cluster.ExecStats
	// Kappa is the Lemma 3.1 budget used by phase 2 (or the whole run).
	Kappa int
	// Triangles is |T̂| and Residual the count left to phase 2.
	Triangles, Residual int
	// Stats is the machine's full measurement.
	Stats lbm.Stats
	// Timeline is the phase-annotated round profile, present when the
	// machine ran with tracing enabled.
	Timeline string
	// Profile is the full structured observability profile (phase spans,
	// per-node loads, counters), present when the machine ran with a
	// Profile collector (lbm.WithTrace or lbm.WithCollector).
	Profile *obsv.Profile
	// SupportWords / DisseminationRounds report the unsupported-mode
	// structure-dissemination phase (zero in the supported model).
	SupportWords        int
	DisseminationRounds int
	// Lanes is the number of value assignments the compiled walk carried:
	// k for MultiplyBatch, so 1 for a scalar multiply (a one-lane batch),
	// and zero for the map engine and the one-shot algorithms. Stats/Rounds
	// are per-batch, not per-lane: the whole batch paid one instruction
	// walk.
	Lanes int
}

// Algorithm solves a loaded instance on a machine. Inputs must be loaded
// per the layout and outputs zeroed; on return every output of interest is
// at its owner.
type Algorithm func(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error)

// Solve is the common harness: it builds machine + layout, loads random or
// provided values, runs the algorithm, verifies the product against the
// reference multiplier, and returns the result.
func Solve(r ring.Semiring, inst *graph.Instance, a, b *matrix.Sparse, alg Algorithm, opts ...lbm.Option) (*Result, *matrix.Sparse, error) {
	m := lbm.New(inst.N, r, opts...)
	l := ChooseLayout(inst)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	res, err := alg(m, l, inst)
	if err != nil {
		return nil, nil, err
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		return nil, nil, err
	}
	res.Stats = m.Stats()
	res.Rounds = res.Stats.Rounds
	if res.Profile = m.Profile(); res.Profile != nil {
		res.Timeline = res.Profile.Timeline()
	}
	return res, got, nil
}

// ChooseLayout picks the canonical input/output distribution for an
// instance: the paper's row layout when every computer would hold O(d)
// elements of each matrix under it, and the balanced ⌈nnz/n⌉-per-computer
// layout otherwise (§2: sparse matrices come distributed d elements per
// computer; the algorithms may permute at O(d) extra cost, which the
// balanced layout realizes for free at load time).
func ChooseLayout(inst *graph.Instance) *lbm.Layout {
	limit := inst.D
	if limit < 1 {
		limit = 1
	}
	rowOK := inst.Ahat.MaxRowNNZ() <= limit &&
		inst.Bhat.MaxRowNNZ() <= limit &&
		inst.Xhat.MaxRowNNZ() <= limit
	if rowOK {
		return lbm.RowLayout(inst.Ahat, inst.Bhat, inst.Xhat)
	}
	return lbm.BalancedLayout(inst.Ahat, inst.Bhat, inst.Xhat)
}

// Verify checks an algorithm's output against the sequential reference.
func Verify(got, a, b *matrix.Sparse, xhat *matrix.Support) error {
	want := matrix.MulReference(a, b, xhat)
	if !matrix.Equal(got, want) {
		return fmt.Errorf("algo: product mismatch")
	}
	return nil
}

// ---------------------------------------------------------------------------
// TrivialSparse

// TrivialSparse processes every triangle at the computer owning its output
// element: inputs are fetched by one h-relation whose degree is the
// per-node triangle count — O(d²) rounds on uniformly sparse instances.
func TrivialSparse(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error) {
	tris := inst.Triangles()
	res := &Result{Name: "trivial-sparse", Triangles: len(tris)}

	type fetch struct {
		to  lbm.NodeID
		key lbm.Key
	}
	seen := map[fetch]bool{}
	var msgs []routing.Msg
	var clean []fetch
	add := func(from, to lbm.NodeID, key lbm.Key) {
		f := fetch{to, key}
		if seen[f] {
			return
		}
		seen[f] = true
		msgs = append(msgs, routing.Msg{From: from, To: to, Src: key, Dst: key, Op: lbm.OpSet})
		if from != to {
			clean = append(clean, f)
		}
	}
	for _, t := range tris {
		xo := l.OwnerX(t.I, t.K)
		add(l.OwnerA(t.I, t.J), xo, lbm.AKey(t.I, t.J))
		add(l.OwnerB(t.J, t.K), xo, lbm.BKey(t.J, t.K))
	}
	if err := m.Run(routing.Schedule(msgs, routing.Auto)); err != nil {
		return nil, fmt.Errorf("trivial-sparse: %w", err)
	}
	for _, t := range tris {
		xo := l.OwnerX(t.I, t.K)
		if !m.Owns(xo) {
			continue
		}
		av := m.MustGet(xo, lbm.AKey(t.I, t.J))
		bv := m.MustGet(xo, lbm.BKey(t.J, t.K))
		m.Acc(xo, lbm.XKey(t.I, t.K), m.R.Mul(av, bv))
	}
	for _, f := range clean {
		m.Del(f.to, f.key)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// BaselineNaiveVirtual

// BaselineNaiveVirtual reconstructs the prior work's unbalanced-instance
// handling: the same I-side virtualization as Lemma 3.1, but inputs travel
// straight from their owners to every virtual computer that needs them (a
// hot element is re-sent once per consumer) and the per-virtual-node output
// partials travel straight to the output owners. On skewed instances the
// input owners and output owners become serial bottlenecks — the effect
// the anchor/broadcast-tree routing of Lemma 3.1 removes.
func BaselineNaiveVirtual(kappa int) Algorithm {
	return func(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error) {
		tris := inst.Triangles()
		k, err := runNaiveVirtual(m, l, inst.N, tris, kappa)
		if err != nil {
			return nil, err
		}
		return &Result{Name: "baseline-naive", Triangles: len(tris), Kappa: k}, nil
	}
}

// runNaiveVirtual processes an explicit triangle set with the naive
// virtualized router and returns the κ used.
func runNaiveVirtual(m *lbm.Machine, l *lbm.Layout, n int, tris []graph.Triangle, kappa int) (int, error) {
	k := kappa
	if k <= 0 {
		k = (3*len(tris) + n - 1) / n
		if k == 0 {
			k = 1
		}
	}
	if len(tris) == 0 {
		return k, nil
	}
	order := append([]graph.Triangle(nil), tris...)
	graph.SortTriangles(order)
	// Virtualize exactly like Lemma 3.1.
	vnodeOf := make([]int32, len(order))
	var hosts []lbm.NodeID
	count := 0
	var curI int32 = -1
	for idx, t := range order {
		if t.I != curI || count == k {
			hosts = append(hosts, lbm.NodeID(len(hosts)%n))
			curI = t.I
			count = 0
		}
		vnodeOf[idx] = int32(len(hosts) - 1)
		count++
	}

	// Naive input routing: one message per (vnode, input element).
	type need struct {
		vnode int32
		key   lbm.Key
	}
	seen := map[need]bool{}
	var msgs []routing.Msg
	var clean []fetchKey
	addNeed := func(v int32, from lbm.NodeID, key lbm.Key) {
		nd := need{v, key}
		if seen[nd] {
			return
		}
		seen[nd] = true
		msgs = append(msgs, routing.Msg{From: from, To: hosts[v], Src: key, Dst: key, Op: lbm.OpSet})
		if from != hosts[v] {
			clean = append(clean, fetchKey{hosts[v], key})
		}
	}
	for idx, t := range order {
		addNeed(vnodeOf[idx], l.OwnerA(t.I, t.J), lbm.AKey(t.I, t.J))
		addNeed(vnodeOf[idx], l.OwnerB(t.J, t.K), lbm.BKey(t.J, t.K))
	}
	if err := m.Run(routing.Schedule(msgs, routing.Auto)); err != nil {
		return k, fmt.Errorf("baseline input: %w", err)
	}

	// Local products, pre-aggregated per (vnode, output position).
	type part struct {
		vnode int32
		i, kk int32
	}
	parts := map[part]bool{}
	for idx, t := range order {
		v := vnodeOf[idx]
		// parts shapes the output routing plan, so every participant tracks
		// it; only the host's owner does the arithmetic.
		if m.Owns(hosts[v]) {
			av := m.MustGet(hosts[v], lbm.AKey(t.I, t.J))
			bv := m.MustGet(hosts[v], lbm.BKey(t.J, t.K))
			m.Acc(hosts[v], lbm.PKey(t.I, t.K, v), m.R.Mul(av, bv))
		}
		parts[part{v, t.I, t.K}] = true
	}

	// Naive output routing: each partial straight to the owner.
	var outs []routing.Msg
	for p := range parts {
		outs = append(outs, routing.Msg{
			From: hosts[p.vnode], To: l.OwnerX(p.i, p.kk),
			Src: lbm.PKey(p.i, p.kk, p.vnode), Dst: lbm.XKey(p.i, p.kk), Op: lbm.OpAcc,
		})
		clean = append(clean, fetchKey{hosts[p.vnode], lbm.PKey(p.i, p.kk, p.vnode)})
	}
	sortMsgs(outs)
	if err := m.Run(routing.Schedule(outs, routing.Auto)); err != nil {
		return k, fmt.Errorf("baseline output: %w", err)
	}
	for _, f := range clean {
		m.Del(f.host, f.key)
	}
	return k, nil
}

type fetchKey struct {
	host lbm.NodeID
	key  lbm.Key
}

// sortMsgs puts map-derived message sets into a deterministic order.
func sortMsgs(ms []routing.Msg) {
	lessKey := func(a, b lbm.Key) bool {
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.I != b.I {
			return a.I < b.I
		}
		if a.J != b.J {
			return a.J < b.J
		}
		return a.Seq < b.Seq
	}
	sort.Slice(ms, func(x, y int) bool {
		a, b := ms[x], ms[y]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Src != b.Src {
			return lessKey(a.Src, b.Src)
		}
		return lessKey(a.Dst, b.Dst)
	})
}

// ---------------------------------------------------------------------------
// LemmaOnly (Theorems 5.3 and 5.11)

// LemmaOnly processes the whole triangle set with Lemma 3.1 at the natural
// budget κ = ⌈3|T̂|/n⌉. For [US:AS:GM] instances |T̂| ≤ d²n (Lemma 5.1) and
// for [BD:AS:AS] instances |T̂| ≤ 2d²n (Lemma 5.9), so this runs in
// O(d² + log n) rounds — Theorems 5.3 and 5.11.
func LemmaOnly(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error) {
	tris := inst.Triangles()
	job, err := fewtri.Process(m, inst.N, l, tris, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Name: "lemma31", Triangles: len(tris), Kappa: job.Kappa}, nil
}

// LemmaOnlyKappa is LemmaOnly with an explicit κ budget (the Lemma 3.1
// precondition |T̂| ≤ κn must hold).
func LemmaOnlyKappa(kappa int) Algorithm {
	return func(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error) {
		tris := inst.Triangles()
		job, err := fewtri.Process(m, inst.N, l, tris, kappa)
		if err != nil {
			return nil, err
		}
		return &Result{Name: "lemma31", Triangles: len(tris), Kappa: job.Kappa}, nil
	}
}

// ---------------------------------------------------------------------------
// Theorem 4.2

// Theorem42Opts tunes the two-phase driver.
type Theorem42Opts struct {
	// Alpha is the target exponent: the driver aims phase 2 at
	// κ = d^Alpha. Defaults to 1.867 for semirings and 1.832 for fields —
	// the paper's headline exponents.
	Alpha float64
	// MinGainDiv divides d³ for the cluster acceptance threshold
	// (Lemma 4.7's /24 constant family). Default 48.
	MinGainDiv int
	// NaivePhase2 replaces Lemma 3.1 by the prior work's naive-routing
	// phase 2 — the full SPAA 2022 algorithm reconstruction. With it the
	// driver aims at the prior exponents (1.927/1.907) instead.
	NaivePhase2 bool
	// FlatSchedule disables the Lemma 4.13 step schedule and uses a single
	// partition pass with the final κ target (the pre-Table-3/4 driver;
	// kept for ablation).
	FlatSchedule bool
}

// Theorem42 returns the two-phase algorithm of §4: clustered dense batches
// until the residual triangle count is at most d^α·n, then Lemma 3.1 on the
// residual. Over a field the clustered batches use distributed Strassen
// where exact.
func Theorem42(opts Theorem42Opts) Algorithm {
	return func(m *lbm.Machine, l *lbm.Layout, inst *graph.Instance) (*Result, error) {
		alpha := opts.Alpha
		if alpha == 0 {
			_, isField := ring.AsField(m.R)
			switch {
			case opts.NaivePhase2 && isField:
				alpha = 1.907
			case opts.NaivePhase2:
				alpha = 1.927
			case isField:
				alpha = 1.832
			default:
				alpha = 1.867
			}
		}
		gainDiv := opts.MinGainDiv
		if gainDiv <= 0 {
			gainDiv = 48
		}
		d := inst.D
		tris := inst.Triangles()
		res := &Result{Name: "theorem42", Triangles: len(tris)}

		kappaTarget := int(math.Ceil(math.Pow(float64(d), alpha)))
		if kappaTarget < 1 {
			kappaTarget = 1
		}

		// Phase 1 (Lemma 4.13's schedule): one Lemma 4.11 application per
		// step of the parameter table, each with its own cluster-density
		// threshold d^{3-4ε}/gainDiv and residual target d^β·n. The flat
		// variant collapses the schedule into a single pass at the final
		// target (ablation of the multi-step optimization).
		type step struct {
			minGain, targetResidual int
		}
		var steps []step
		if opts.FlatSchedule {
			mg := int(math.Pow(float64(d), 3)) / gainDiv
			steps = []step{{minGain: mg, targetResidual: kappaTarget * inst.N}}
		} else {
			lambda := params.LambdaSemiring
			if _, isField := ring.AsField(m.R); isField {
				lambda = params.LambdaStrassen
			}
			for _, st := range params.Schedule(lambda, 1e-5, alpha) {
				// Lemma 4.7's density threshold d^{3-4ε}/24 and
				// Lemma 4.11's residual target d^β·n for this step.
				steps = append(steps, step{
					minGain:        int(math.Pow(float64(d), 3-4*st.Epsilon) / 24),
					targetResidual: int(math.Pow(float64(d), st.Beta) * float64(inst.N)),
				})
			}
		}

		net := vnet.Roles(inst.N)
		before := m.Rounds()
		m.Mark("phase1:clusters")
		m.BeginPhase("phase1")
		m.Counter("kappa_target", float64(kappaTarget))
		residual := tris
		for _, st := range steps {
			if len(residual) <= st.targetResidual {
				continue
			}
			mg := st.minGain
			if mg < 2 {
				mg = 2
			}
			batches, rest := cluster.Partition(residual, inst.N, d, cluster.PartitionOpts{
				MinGain:        mg,
				TargetResidual: st.targetResidual,
			})
			if len(batches) == 0 {
				break
			}
			res.Batches += len(batches)
			cs, err := cluster.RunBatches(m, net, inst.N, l, batches)
			res.Cluster.CubeClusters += cs.CubeClusters
			res.Cluster.StrassenClusters += cs.StrassenClusters
			if err != nil {
				m.EndPhase()
				return nil, fmt.Errorf("theorem42 phase 1: %w", err)
			}
			residual = rest
		}
		res.Residual = len(residual)
		res.Phase1Rounds = m.Rounds() - before
		m.Counter("batches", float64(res.Batches))
		m.Counter("residual", float64(res.Residual))
		m.EndPhase()

		// Phase 2 on the residual: Lemma 3.1, or the naive router for the
		// prior-work reconstruction.
		before = m.Rounds()
		m.Mark("phase2:residual")
		m.BeginPhase("phase2")
		m.Counter("triangles", float64(len(residual)))
		if opts.NaivePhase2 {
			res.Name = "spaa22-reconstruction"
			kappa, err := runNaiveVirtual(m, l, inst.N, residual, 0)
			if err != nil {
				m.EndPhase()
				return nil, fmt.Errorf("spaa22 phase 2: %w", err)
			}
			res.Kappa = kappa
		} else {
			job, err := fewtri.Process(m, inst.N, l, residual, 0)
			if err != nil {
				m.EndPhase()
				return nil, fmt.Errorf("theorem42 phase 2: %w", err)
			}
			res.Kappa = job.Kappa
		}
		res.Phase2Rounds = m.Rounds() - before
		m.EndPhase()
		return res, nil
	}
}
