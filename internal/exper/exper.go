// Package exper is the experiment harness: it regenerates every table and
// figure of the paper from live simulations and the analytic machinery.
// Every algorithm row runs its plan compiled, the program a server runs
// (runVerified), Table 1's dense black-box rows included.
// The cmd/lbmm CLI and the repository benchmarks are thin wrappers around
// this package, so "the numbers in EXPERIMENTS.md" and "what the benches
// print" are by construction the same code path.
package exper

import (
	"fmt"
	"math"
	"strings"

	"lbmm/internal/algo"
	"lbmm/internal/dense"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// Point is one measurement of a scaling series.
type Point struct {
	X      float64 // the swept parameter (n or d)
	Rounds int
	// Phases is the top-level phase breakdown of the run (present only when
	// the sweep ran with WithProfiling). The counts tile the round budget:
	// they sum exactly to Rounds, with gaps reported as "(unphased)".
	Phases []PhaseCount `json:",omitempty"`
}

// PhaseCount is one top-level phase's share of a point's round budget.
type PhaseCount struct {
	Label  string
	Rounds int
}

// Opt tunes an experiment sweep.
type Opt func(*sweepOptions)

type sweepOptions struct {
	profiling bool
}

// WithProfiling attaches an observability collector to every verified
// algorithm run of the sweep and records each point's top-level phase
// breakdown (Point.Phases). Dense black-box rows, which bypass the
// algorithm harness, are unaffected.
func WithProfiling() Opt {
	return func(o *sweepOptions) { o.profiling = true }
}

func resolveOpts(opts []Opt) sweepOptions {
	var o sweepOptions
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Series is a named measurement series with its theoretical exponent.
type Series struct {
	Name   string
	Theory string  // the bound as printed in the paper
	Expo   float64 // theoretical exponent of the swept parameter (0 = n/a)
	Points []Point
}

// FittedExponent least-squares fits log(rounds) = e·log(x) + c and returns
// e. Series with fewer than two points return NaN.
func (s *Series) FittedExponent() float64 {
	if len(s.Points) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for _, p := range s.Points {
		lx := math.Log(p.X)
		ly := math.Log(math.Max(float64(p.Rounds), 1))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(s.Points))
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// TailExponent fits only the last two points — a better estimate of the
// asymptotic slope when small sizes are constant-dominated.
func (s *Series) TailExponent() float64 {
	if len(s.Points) < 2 {
		return math.NaN()
	}
	a := s.Points[len(s.Points)-2]
	b := s.Points[len(s.Points)-1]
	return math.Log(float64(b.Rounds)/math.Max(float64(a.Rounds), 1)) / math.Log(b.X/a.X)
}

// Format renders a series as a table block.
func (s *Series) Format(param string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s theory %-22s", s.Name, s.Theory)
	fmt.Fprintf(&b, " fit %.3f (tail %.3f)\n", s.FittedExponent(), s.TailExponent())
	for _, p := range s.Points {
		fmt.Fprintf(&b, "    %s=%-6.0f rounds=%d\n", param, p.X, p.Rounds)
		if len(p.Phases) > 0 {
			b.WriteString("        phases:")
			for _, ph := range p.Phases {
				fmt.Fprintf(&b, " %s=%d", ph.Label, ph.Rounds)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// plan is one algorithm as algo.Planner plans it.
type plan func(*algo.Planner) (*algo.Prepared, error)

// lemma31 plans Lemma 3.1 with budget κ (0: the natural budget).
func lemma31(kappa int) plan {
	return func(pl *algo.Planner) (*algo.Prepared, error) { return pl.Lemma31(kappa) }
}

// baseline plans the naive phase 2 with budget κ (0: the natural budget).
func baseline(kappa int) plan {
	return func(pl *algo.Planner) (*algo.Prepared, error) { return pl.Baseline(kappa) }
}

// denseRoutine plans a whole-instance routine of package dense as the plan
// named name (algo.Planner.Dense).
func denseRoutine(name string, routine func(*lbm.Layout, *graph.Instance) (dense.Routine, error)) plan {
	return func(pl *algo.Planner) (*algo.Prepared, error) { return pl.Dense(name, routine) }
}

// strassen plans classic distributed Strassen on a whole instance.
func strassen(l *lbm.Layout, inst *graph.Instance) (dense.Routine, error) {
	return dense.WholeStrassen(l, inst, nil)
}

// runVerified plans an algorithm for an instance, compiles the plan and
// runs it once with random values over r as a one-lane batch — the program
// a server would run — verifies the product, and returns the result. The
// compiled run counts no per-node loads, so the result's Stats carry the
// plan's NodeLoads instead, which are the loads of every run.
func runVerified(r ring.Semiring, inst *graph.Instance, alg plan, seed int64, opts ...lbm.Option) (*algo.Result, error) {
	p, err := alg(algo.NewPlanner(r, inst))
	if err == nil {
		err = p.Compile()
	}
	if err != nil {
		return nil, err
	}
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	got, res, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b}, opts...)
	if err != nil {
		return nil, err
	}
	if err := algo.Verify(got[0], a, b, inst.Xhat); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", res.Name, describe(inst), err)
	}
	res.Stats.SendLoad, res.Stats.RecvLoad = p.NodeLoads()
	return res, nil
}

func describe(inst *graph.Instance) string {
	return fmt.Sprintf("n=%d d=%d", inst.N, inst.D)
}

// phaseCounts extracts a result's top-level phase breakdown from its
// observability profile (nil when the run was not profiled). The export
// layer guarantees the counts tile [0, Rounds), so they sum to the total.
func phaseCounts(res *algo.Result) []PhaseCount {
	if res.Profile == nil {
		return nil
	}
	e := res.Profile.Export()
	out := make([]PhaseCount, 0, len(e.Phases))
	for _, s := range e.Phases {
		out = append(out, PhaseCount{Label: s.Label, Rounds: s.Rounds})
	}
	return out
}
