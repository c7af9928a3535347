package core

import (
	"fmt"
	"strings"

	"lbmm/internal/matrix"
)

// Band is the paper's Table 2 classification of an instance's complexity.
type Band uint8

const (
	// Band1Fast: upper bound O(d^1.867) semirings / O(d^1.832) fields
	// (Theorem 4.2); e.g. [US:US:AS].
	Band1Fast Band = iota
	// BandOutlier is the paper's open case [US:US:GM]: trivial O(d⁴) upper
	// bound, unknown whether O(d^1.832) is possible.
	BandOutlier
	// Band2Log: upper bound O(d² + log n) (Theorems 5.3/5.11), lower bound
	// Ω(log n) (Theorem 6.15); e.g. [BD:BD:BD].
	Band2Log
	// Band3Sqrt: lower bound Ω(√n) (Theorem 6.27); e.g. [BD:BD:GM].
	Band3Sqrt
	// Band4Conditional: a fast algorithm would improve dense matrix
	// multiplication (Theorem 6.19); e.g. [AS:AS:AS].
	Band4Conditional
)

func (b Band) String() string {
	switch b {
	case Band1Fast:
		return "1:fast"
	case BandOutlier:
		return "outlier"
	case Band2Log:
		return "2:d2+log"
	case Band3Sqrt:
		return "3:sqrt"
	case Band4Conditional:
		return "4:conditional"
	}
	return fmt.Sprintf("Band(%d)", uint8(b))
}

// Bounds returns the upper and lower bound strings of Table 2 for the band.
func (b Band) Bounds() (upper, lower string) {
	switch b {
	case Band1Fast:
		return "O(d^1.867) semiring / O(d^1.832) field", "Ω(d^λ) trivial"
	case BandOutlier:
		return "O(d^4) trivial", "Ω(d^λ) trivial"
	case Band2Log:
		return "O(d^2 + log n)", "Ω(d^λ), Ω(log n)"
	case Band3Sqrt:
		return "—", "Ω(√n)"
	case Band4Conditional:
		return "—", "Ω(n^{(λ-1)/2}) conditional"
	}
	return "?", "?"
}

// rank orders the classes by the containment lattice for the symmetric
// classification (RS and CS share a rank).
func rank(c matrix.Class) int {
	switch c {
	case matrix.US:
		return 0
	case matrix.RS, matrix.CS:
		return 1
	case matrix.BD:
		return 2
	case matrix.AS:
		return 3
	default:
		return 4
	}
}

// Classify maps the (unordered) triple of sparsity classes to its Table 2
// band. The paper's results are symmetric in the three matrices; the
// footnoted († ) permutation-specific lower bounds are reported at the band
// level of their strongest variant, matching the table's presentation.
func Classify(a, b, x matrix.Class) Band {
	// Sort ranks ascending.
	r := []int{rank(a), rank(b), rank(x)}
	if r[0] > r[1] {
		r[0], r[1] = r[1], r[0]
	}
	if r[1] > r[2] {
		r[1], r[2] = r[2], r[1]
	}
	if r[0] > r[1] {
		r[0], r[1] = r[1], r[0]
	}
	const (
		us = 0
		bd = 2
		as = 3
		gm = 4
	)
	switch {
	// [US:US:US] … [US:US:AS].
	case r[0] == us && r[1] == us && r[2] <= as:
		return Band1Fast
	// [US:US:GM] — the open outlier.
	case r[0] == us && r[1] == us && r[2] == gm:
		return BandOutlier
	// [US:BD:BD] … [US:AS:GM]: one US, at most one GM.
	case r[0] == us && r[1] <= as && r[2] <= gm:
		return Band2Log
	// [BD:BD:BD] … [BD:AS:AS]: smallest ≤ BD, no GM.
	case r[0] <= bd && r[2] <= as:
		return Band2Log
	// [AS:AS:AS] … [GM:GM:GM]: all at least AS — conditional (the
	// strongest statement for these rows; those that also dominate
	// {US,GM,GM} or {BD,BD,GM} additionally carry the Ω(√n) bound).
	case r[0] >= as:
		return Band4Conditional
	// [US:GM:GM] / [BD:BD:GM] … — Ω(√n).
	default:
		return Band3Sqrt
	}
}

// TableRow is one row of the regenerated Table 2.
type TableRow struct {
	Classes [3]matrix.Class
	Band    Band
	Upper   string
	Lower   string
}

// Table2 enumerates every multiset of {US, BD, AS, GM} (the classes the
// paper's Table 2 ranges over) with its classification.
func Table2() []TableRow {
	classes := []matrix.Class{matrix.US, matrix.BD, matrix.AS, matrix.GM}
	var rows []TableRow
	for i, ca := range classes {
		for j := i; j < len(classes); j++ {
			for k := j; k < len(classes); k++ {
				cb, cx := classes[j], classes[k]
				band := Classify(ca, cb, cx)
				up, lo := band.Bounds()
				rows = append(rows, TableRow{
					Classes: [3]matrix.Class{ca, cb, cx},
					Band:    band, Upper: up, Lower: lo,
				})
			}
		}
	}
	return rows
}

// MarshalJSON encodes the band by name.
func (b Band) MarshalJSON() ([]byte, error) {
	return []byte(`"` + b.String() + `"`), nil
}

// UnmarshalJSON decodes a band name.
func (b *Band) UnmarshalJSON(data []byte) error {
	s := strings.Trim(string(data), `"`)
	for _, cand := range []Band{Band1Fast, BandOutlier, Band2Log, Band3Sqrt, Band4Conditional} {
		if cand.String() == s {
			*b = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown band %q", s)
}
