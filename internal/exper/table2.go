package exper

import (
	"fmt"
	"strings"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// Table2Row is one measured row of the classification table.
type Table2Row struct {
	Classes   [3]matrix.Class
	Band      core.Band
	Upper     string
	Lower     string
	Rounds    int // measured rounds of the band's algorithm
	Triangles int
	N, D      int
}

// Table2 regenerates the paper's Table 2: for every multiset of
// {US, BD, AS, GM} it generates a representative instance, runs the
// paper's algorithm for the instance's band on it (verified) — Theorem 4.2
// in band 1, Lemma 3.1 in every other band, whose cost then reflects the
// hardness — and reports the classification band with its bounds plus the
// measured rounds.
func Table2(scale Scale) ([]Table2Row, error) {
	n, d := 36, 3
	if scale == Full {
		n, d = 72, 4
	}
	var rows []Table2Row
	for _, tr := range core.Table2() {
		inst := workload.Instance(tr.Classes[0], tr.Classes[1], tr.Classes[2], n, d, 7)
		a := matrix.Random(inst.Ahat, ring.Counting{}, 1)
		b := matrix.Random(inst.Bhat, ring.Counting{}, 2)
		alg := "lemma31"
		if core.Classify(inst.Classify()) == core.Band1Fast {
			alg = "theorem42"
		}
		// Multiply checks the product against matrix.MulReference.
		_, rep, err := core.Multiply(a, b, inst.Xhat, core.Options{Ring: ring.Counting{}, D: d, Algorithm: alg})
		if err != nil {
			return nil, fmt.Errorf("row %v: %w", tr.Classes, err)
		}
		rows = append(rows, Table2Row{
			Classes: tr.Classes, Band: tr.Band, Upper: tr.Upper, Lower: tr.Lower,
			Rounds: rep.Rounds, Triangles: rep.Triangles, N: n, D: d,
		})
	}
	return rows, nil
}

// FormatTable2 renders the measured classification table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2 — classification (measured on generated instances)\n\n")
	fmt.Fprintf(&b, "%-14s %-12s %-38s %-28s %8s %8s\n",
		"Sparsity", "Band", "Upper bound", "Lower bound", "|T|", "rounds")
	for _, r := range rows {
		name := fmt.Sprintf("[%v:%v:%v]", r.Classes[0], r.Classes[1], r.Classes[2])
		fmt.Fprintf(&b, "%-14s %-12s %-38s %-28s %8d %8d\n",
			name, r.Band, r.Upper, r.Lower, r.Triangles, r.Rounds)
	}
	return b.String()
}
