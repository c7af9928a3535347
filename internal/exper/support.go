package exper

import (
	"fmt"
	"strings"

	"lbmm/internal/algo"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// SupportRow compares the supported and unsupported models on one instance.
type SupportRow struct {
	N, D                int
	Words               int // structure words disseminated
	SupportedRounds     int
	UnsupportedRounds   int
	DisseminationRounds int
}

// SupportCost measures what knowing the sparsity structure in advance is
// worth (the paper's §1.6 open direction, baselined): the same instances
// solved in the supported model and in the trivial unsupported protocol
// (structure gathered and pipeline-broadcast, then the supported algorithm).
// The dissemination's Θ(nnz) rounds dwarf the supported O(d²+log n) —
// quantifying why the supported model is the interesting regime.
func SupportCost(scale Scale) ([]SupportRow, error) {
	ns := []int{32, 64, 128}
	if scale == Full {
		ns = []int{32, 128, 512}
	}
	r := ring.Counting{}
	var rows []SupportRow
	for _, n := range ns {
		d := 3
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, d, int64(n))
		sup, err := runVerified(r, inst, lemma31(0), 1)
		if err != nil {
			return nil, err
		}
		// The dissemination runs on its own machine; the unsupported protocol
		// is it followed by the supported plan, so the rounds add.
		m := lbm.New(inst.N, r)
		words, err := algo.DisseminateSupport(m, algo.ChooseLayout(inst), inst)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SupportRow{
			N: n, D: d,
			Words:               words,
			SupportedRounds:     sup.Rounds,
			UnsupportedRounds:   m.Rounds() + sup.Rounds,
			DisseminationRounds: m.Rounds(),
		})
	}
	return rows, nil
}

// FormatSupportCost renders the supported-vs-unsupported comparison.
func FormatSupportCost(rows []SupportRow) string {
	var b strings.Builder
	b.WriteString("Cost of the support (§1.6 baseline) — supported vs run-time structure dissemination\n\n")
	fmt.Fprintf(&b, "%6s %4s %8s %12s %14s %16s\n", "n", "d", "words", "supported", "dissemination", "unsupported total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %4d %8d %12d %14d %16d\n",
			r.N, r.D, r.Words, r.SupportedRounds, r.DisseminationRounds, r.UnsupportedRounds)
	}
	return b.String()
}
