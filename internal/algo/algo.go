// Package algo assembles the paper's end-to-end algorithms from the
// building blocks. Every algorithm is a plan: the structure is known in
// advance and only values move, so a Planner plans an algorithm once per
// structure and the plan, once compiled, runs on any number of value sets
// on the slot-addressed engine (Prepared.MultiplyBatch): the program that
// serves, and the one every reported number and trace comes from. A plan
// writes its step order once, to an lbm.Emitter: compiling lowers it into
// that program, and the reference map Machine (Prepared.MultiplyMap) runs
// it as the oracle the tests and chaos.Differential check the program
// with, and nothing else. The Planner's plans:
//
//   - Trivial — the O(d²)-round baseline for uniformly sparse instances
//     ([13]'s starting point): every triangle is processed at the computer
//     that owns its output element, after fetching the inputs.
//   - Baseline — a reconstruction of the prior work's second phase: the
//     same virtualization as Lemma 3.1 but with naive routing (hot values
//     re-sent once per consumer, no anchors, no broadcast trees). Its
//     sender contention is what costs the prior work the ε/2 in the
//     exponent.
//   - Lemma31 — Lemma 3.1 applied to the whole triangle set; at the natural
//     budget this is Theorems 5.3 and 5.11 (the O(d² + log n) algorithms
//     for [US:AS:GM] and [BD:AS:AS]).
//   - Theorem42 — the two-phase O(d^1.867)/O(d^1.832) algorithm: clustered
//     dense batches (phase 1) until the residual is small, then Lemma 3.1
//     (phase 2).
//   - SPAA22 — the prior work's full algorithm as reconstructed here:
//     Theorem42's phase 1 aimed at the prior exponents, then the naive
//     phase 2.
//   - Dense — a whole-instance dense routine of package dense (Table 1's
//     dense rows).
package algo

import (
	"fmt"
	"math"

	"lbmm/internal/cluster"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/params"
	"lbmm/internal/ring"
)

// Result summarizes one algorithm execution.
type Result struct {
	Name string
	// Engine names the execution engine that produced the result: "map"
	// for MultiplyMap, "compiled" for MultiplyBatch and MultiplyValues.
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
	// Kappa is the virtual-computer budget κ of the plan's Lemma 3.1 or
	// naive job (phase 2's, for the two-phase plans).
	Kappa int
	// Triangles is |T̂| and Residual the count left to phase 2.
	Triangles, Residual int
	// Stats is the machine's full measurement.
	Stats lbm.Stats
	// Profile is the full structured observability profile (phase spans,
	// per-node loads, counters), present when the machine ran with a
	// Profile collector (lbm.WithTrace or lbm.WithCollector).
	Profile *obsv.Profile
	// Lanes is the number of value assignments the compiled walk carried:
	// k for MultiplyBatch, so 1 for a scalar multiply (a one-lane batch),
	// and zero for the map engine. Stats/Rounds are per-batch, not
	// per-lane: the whole batch paid one instruction walk.
	Lanes int
}

// ChooseLayout picks the canonical input/output distribution for an
// instance (choosePlacement) and lays the supports out by it.
func ChooseLayout(inst *graph.Instance) *lbm.Layout {
	return choosePlacement(inst).Layout(inst.Ahat, inst.Bhat, inst.Xhat)
}

// choosePlacement decides the layout of an instance: the paper's row layout
// when every computer would hold O(d) elements of each matrix under it, and
// the balanced ⌈nnz/n⌉-per-computer layout otherwise (§2: sparse matrices
// come distributed d elements per computer; the algorithms may permute at
// O(d) extra cost, which the balanced layout realizes for free at load
// time). A decoded plan derives its load slots from the same decision.
func choosePlacement(inst *graph.Instance) lbm.Placement {
	limit := max(inst.D, 1)
	if inst.Ahat.MaxRowNNZ() <= limit && inst.Bhat.MaxRowNNZ() <= limit && inst.Xhat.MaxRowNNZ() <= limit {
		return lbm.ByRow
	}
	return lbm.Balanced
}

// Verify checks an algorithm's output against the sequential reference.
func Verify(got, a, b *matrix.Sparse, xhat *matrix.Support) error {
	want := matrix.MulReference(a, b, xhat)
	if !matrix.Equal(got, want) {
		return fmt.Errorf("algo: product mismatch")
	}
	return nil
}

// theorem42Alpha is the exponent a two-phase plan aims phase 2 at
// (κ = d^α): the paper's headline 1.867 for semirings and 1.832 for fields,
// or the prior work's 1.927/1.907 under the naive phase 2.
func theorem42Alpha(isField, naivePhase2 bool) float64 {
	switch {
	case naivePhase2 && isField:
		return 1.907
	case naivePhase2:
		return 1.927
	case isField:
		return 1.832
	default:
		return 1.867
	}
}

// clusterSchedule is Theorem 4.2's phase 1, Lemma 4.13's schedule, handing
// each step's batches to step for planning. Each step of the parameter
// table for the ring's λ and the target α is one Lemma 4.11 application:
// cluster.Partition at the step's cluster-density threshold d^{3-4ε}/24
// (Lemma 4.7, at least 2) and residual target d^β·n. A step whose target
// the residual already meets is skipped; the walk ends at the first step
// that finds no batch. It returns the residual left to phase 2.
func clusterSchedule(inst *graph.Instance, isField bool, alpha float64, tris []graph.Triangle, step func([]cluster.Batch) error) ([]graph.Triangle, error) {
	lambda := params.LambdaSemiring
	if isField {
		lambda = params.LambdaStrassen
	}
	residual := tris
	for _, st := range params.Schedule(lambda, 1e-5, alpha) {
		opts := partitionOpts(inst, st)
		if len(residual) <= opts.TargetResidual {
			continue
		}
		batches, rest := cluster.Partition(residual, inst.N, inst.D, opts)
		if len(batches) == 0 {
			break
		}
		if err := step(batches); err != nil {
			return nil, err
		}
		residual = rest
	}
	return residual, nil
}

// partitionOpts is schedule step st's Lemma 4.11 application on inst: the
// cluster-density threshold d^{3-4ε}/24 of Lemma 4.7, at least 2, and the
// residual target d^β·n.
func partitionOpts(inst *graph.Instance, st params.Step) cluster.PartitionOpts {
	d := float64(inst.D)
	return cluster.PartitionOpts{
		MinGain:        max(int(math.Pow(d, 3-4*st.Epsilon)/24), 2),
		TargetResidual: int(math.Pow(d, st.Beta) * float64(inst.N)),
	}
}

// twoPhase reports whether p is a two-phase plan (Theorem 4.2 or the
// SPAA 2022 reconstruction), whose trace splits into phase1 and phase2.
func (p *Prepared) twoPhase() bool {
	return p.Name == "theorem42" || p.Name == spaa22
}

// beginPhase1 opens a two-phase plan's phase-1 span, with the κ target
// ⌈d^α⌉ that phase 1 shrinks the residual toward.
func (p *Prepared) beginPhase1(rec lbm.Emitter) {
	if !p.twoPhase() {
		return
	}
	_, isField := ring.AsField(p.R)
	target := int(math.Ceil(math.Pow(float64(p.Inst.D), theorem42Alpha(isField, p.Name == spaa22))))
	rec.BeginPhase("phase1")
	rec.Counter("kappa_target", float64(max(target, 1)))
}

// beginPhase2 closes the phase-1 span with its batch and residual counts and
// opens phase 2's on the residual.
func (p *Prepared) beginPhase2(rec lbm.Emitter) {
	if !p.twoPhase() {
		return
	}
	rec.Counter("batches", float64(p.meta.Batches))
	rec.Counter("residual", float64(p.meta.Residual))
	rec.EndPhase()
	rec.BeginPhase("phase2")
	rec.Counter("triangles", float64(p.meta.Residual))
}

// endPhase2 closes a two-phase plan's phase-2 span.
func (p *Prepared) endPhase2(rec lbm.Emitter) {
	if p.twoPhase() {
		rec.EndPhase()
	}
}
