package exper

import (
	"fmt"
	"strings"

	"lbmm/internal/dense"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// AblationRow compares Lemma 3.1 against the prior work's naive-routing
// phase 2 on one instance.
type AblationRow struct {
	Name           string
	N              int
	Kappa          int
	LemmaRounds    int
	BaselineRounds int
}

// AblationLemma31 is the paper's key internal claim made measurable:
// processing the same triangle sets, Lemma 3.1's anchor/broadcast-tree
// routing pays O(κ + d + log m) where the naive duplication routing pays
// the hot-value fan-out. The hot-pair family makes the gap Θ(n / log n);
// the uniform family shows the two are comparable when nothing is hot
// (the lemma's overhead is a constant factor).
func AblationLemma31(scale Scale) ([]AblationRow, error) {
	ns := []int{64, 128, 256}
	if scale == Full {
		ns = []int{64, 256, 1024}
	}
	r := ring.Counting{}
	var rows []AblationRow

	for _, n := range ns {
		inst := workload.HotPair(n)
		lem, err := runVerified(r, inst, lemma31(1), int64(n))
		if err != nil {
			return nil, err
		}
		base, err := runVerified(r, inst, baseline(1), int64(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "hot pair", N: n, Kappa: 1,
			LemmaRounds: lem.Rounds, BaselineRounds: base.Rounds,
		})
	}

	for _, n := range ns {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, 4, int64(n))
		lem, err := runVerified(r, inst, lemma31(0), int64(n))
		if err != nil {
			return nil, err
		}
		base, err := runVerified(r, inst, baseline(0), int64(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "uniform US(4)", N: n, Kappa: lem.Kappa,
			LemmaRounds: lem.Rounds, BaselineRounds: base.Rounds,
		})
	}
	return rows, nil
}

// FormatAblation renders the Lemma 3.1 ablation.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Lemma 3.1 ablation — anchored broadcast-tree routing vs naive duplication\n\n")
	fmt.Fprintf(&b, "%-16s %6s %6s %14s %16s %8s\n", "family", "n", "κ", "lemma rounds", "baseline rounds", "speedup")
	for _, r := range rows {
		speed := float64(r.BaselineRounds) / float64(maxInt(r.LemmaRounds, 1))
		fmt.Fprintf(&b, "%-16s %6d %6d %14d %16d %7.2fx\n",
			r.Name, r.N, r.Kappa, r.LemmaRounds, r.BaselineRounds, speed)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// VariantRow compares the two bilinear schemes of the distributed field
// multiplier.
type VariantRow struct {
	N                             int
	ClassicRounds, WinogradRounds int
}

// AblationStrassenVariant measures classic Strassen vs Strassen–Winograd on
// dense field instances. Winograd saves local additions — free in this
// model — while its denser block combinations cost more combination
// messages, so classic is expected to win on rounds: an instructive
// inversion of the sequential trade-off.
func AblationStrassenVariant(scale Scale) ([]VariantRow, error) {
	ns := []int{16, 32}
	if scale == Full {
		ns = []int{16, 32, 64}
	}
	var rows []VariantRow
	for _, n := range ns {
		inst := denseInstance(n)
		run := func(name string, routine func(*lbm.Layout, *graph.Instance) (dense.Routine, error)) (int, error) {
			res, err := runVerified(ring.NewGFp(1009), inst, denseRoutine(name, routine), 11)
			if err != nil {
				return 0, err
			}
			return res.Rounds, nil
		}
		classic, err := run("dense-strassen", strassen)
		if err != nil {
			return nil, err
		}
		winograd, err := run("dense-strassen-winograd", func(l *lbm.Layout, in *graph.Instance) (dense.Routine, error) {
			return dense.WholeStrassen(l, in, dense.VariantWinograd())
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, VariantRow{N: n, ClassicRounds: classic, WinogradRounds: winograd})
	}
	return rows, nil
}

// FormatVariantAblation renders the bilinear-scheme comparison.
func FormatVariantAblation(rows []VariantRow) string {
	var b strings.Builder
	b.WriteString("\nBilinear-scheme ablation — classic Strassen vs Strassen–Winograd (dense, GF(p))\n\n")
	fmt.Fprintf(&b, "%6s %16s %16s\n", "n", "classic rounds", "winograd rounds")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %16d %16d\n", r.N, r.ClassicRounds, r.WinogradRounds)
	}
	return b.String()
}
