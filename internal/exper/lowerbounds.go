package exper

import (
	"fmt"
	"strings"

	"lbmm/internal/lower"
	"lbmm/internal/ring"
)

// LowerRow is one measured lower-bound experiment.
type LowerRow struct {
	Name     string
	N        int
	Bound    int // the proven lower bound value
	Rounds   int // measured rounds of our algorithm on the hard instance
	MaxRecv  int64
	UpperOK  bool // whether the measured rounds also meet the paper's upper bound shape
	UpperCap int  // the sanity cap used for UpperOK
}

// LowerBounds runs the §6 hard instances and reports proven bound vs
// measured cost. Every row must satisfy bound ≤ measured (the bound is
// unconditional); class-2 rows must also stay under an O(d²+log n)-flavoured
// cap (the matching upper bound).
func LowerBounds(scale Scale) ([]LowerRow, error) {
	ns := []int{16, 64, 256}
	if scale == Full {
		ns = []int{16, 64, 256, 1024}
	}
	var rows []LowerRow
	r := ring.Counting{}

	for _, n := range ns {
		// Sum (Theorem 6.15 via Corollary 6.10).
		inst := lower.SumInstance(n)
		res, err := runVerified(r, inst, lemma31(0), int64(n))
		if err != nil {
			return nil, fmt.Errorf("sum n=%d: %w", n, err)
		}
		cap := 12*lower.SumBound(n) + 40
		rows = append(rows, LowerRow{
			Name: "sum (BD×BD=US, d=1)", N: n, Bound: lower.SumBound(n),
			Rounds: res.Rounds, MaxRecv: res.Stats.MaxRecvLoad(),
			UpperOK: res.Rounds <= cap, UpperCap: cap,
		})

		// Broadcast (Lemma 6.13).
		inst = lower.BroadcastInstance(n)
		res, err = runVerified(r, inst, lemma31(0), int64(n))
		if err != nil {
			return nil, fmt.Errorf("broadcast n=%d: %w", n, err)
		}
		cap = 12*lower.BroadcastFanInBound(n) + 40
		rows = append(rows, LowerRow{
			Name: "broadcast (BD×US=BD, d=1)", N: n, Bound: lower.BroadcastFanInBound(n),
			Rounds: res.Rounds, MaxRecv: res.Stats.MaxRecvLoad(),
			UpperOK: res.Rounds <= cap, UpperCap: cap,
		})
	}

	// √n routing hardness (Theorem 6.27) — smaller n, the instances are
	// dense in X̂.
	sqrtNs := []int{16, 36, 64}
	if scale == Full {
		sqrtNs = []int{16, 64, 144, 256}
	}
	for _, n := range sqrtNs {
		inst := lower.RSCSInstance(n)
		res, err := runVerified(r, inst, lemma31(0), int64(n))
		if err != nil {
			return nil, fmt.Errorf("rscs n=%d: %w", n, err)
		}
		rows = append(rows, LowerRow{
			Name: "outer product (RS×CS=GM, d=1)", N: n, Bound: lower.SqrtBound(n) - 1,
			Rounds: res.Rounds, MaxRecv: res.Stats.MaxRecvLoad(), UpperOK: true,
		})

		inst = lower.USGMInstance(n)
		res, err = runVerified(r, inst, lemma31(0), int64(n))
		if err != nil {
			return nil, fmt.Errorf("usgm n=%d: %w", n, err)
		}
		rows = append(rows, LowerRow{
			Name: "band×dense (US×GM=GM, d=2)", N: n, Bound: lower.SqrtBound(n) - 1,
			Rounds: res.Rounds, MaxRecv: res.Stats.MaxRecvLoad(), UpperOK: true,
		})
	}

	// Theorem 6.19 packing reduction, executed.
	for _, m := range []int{4, 6} {
		inst := lower.PackDense(m)
		res, err := runVerified(r, inst, lemma31(0), int64(m))
		if err != nil {
			return nil, fmt.Errorf("packing m=%d: %w", m, err)
		}
		rows = append(rows, LowerRow{
			Name:    fmt.Sprintf("packing reduction T'(m)=m·T(m²), m=%d", m),
			N:       inst.N,
			Bound:   0,
			Rounds:  lower.ReductionRounds(m, res.Rounds),
			MaxRecv: res.Stats.MaxRecvLoad(),
			UpperOK: true,
		})
	}
	return rows, nil
}

// CheckLowerRows verifies the invariant bound ≤ rounds on every row.
func CheckLowerRows(rows []LowerRow) error {
	for _, row := range rows {
		if row.Rounds < row.Bound {
			return fmt.Errorf("%s n=%d: measured %d rounds below proven bound %d",
				row.Name, row.N, row.Rounds, row.Bound)
		}
		if !row.UpperOK {
			return fmt.Errorf("%s n=%d: %d rounds exceeds upper-bound cap %d",
				row.Name, row.N, row.Rounds, row.UpperCap)
		}
	}
	return nil
}

// FormatLowerBounds renders the lower-bound experiments.
func FormatLowerBounds(rows []LowerRow) string {
	var b strings.Builder
	b.WriteString("Section 6 — lower bounds: proven bound vs measured cost of our algorithms\n\n")
	fmt.Fprintf(&b, "%-42s %6s %8s %8s %9s\n", "experiment", "n", "bound", "rounds", "maxRecv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %6d %8d %8d %9d\n", r.Name, r.N, r.Bound, r.Rounds, r.MaxRecv)
	}
	b.WriteString("\nBoolean-degree machinery (Lemma 6.5): deg(OR_n) computed by Möbius inversion\n")
	for _, n := range []int{4, 8, 12} {
		deg := lower.BooleanDegree(func(m uint32) bool { return m != 0 }, n)
		fmt.Fprintf(&b, "  deg(OR_%d) = %d  ⇒  T ≥ %d\n", n, deg, lower.DegreeBound(deg))
	}
	return b.String()
}
