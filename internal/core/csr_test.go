package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// rowsOracle is a support as plain row lists, each ascending: the
// reference the row-offset form is checked against.
type rowsOracle [][]int32

// randomRows draws an n×n structure whose rows hold up to 2d columns.
func randomRows(rng *rand.Rand, n, d int) rowsOracle {
	o := make(rowsOracle, n)
	for i := range o {
		for _, j := range rng.Perm(n)[:rng.Intn(min(n, 2*d)+1)] {
			o[i] = append(o[i], int32(j))
		}
		slices.Sort(o[i])
	}
	return o
}

func (o rowsOracle) has(i, j int) bool { return slices.Contains(o[i], int32(j)) }

func (o rowsOracle) entries() [][2]int {
	var out [][2]int
	for i, row := range o {
		for _, j := range row {
			out = append(out, [2]int{i, int(j)})
		}
	}
	return out
}

func (o rowsOracle) cols() rowsOracle {
	cols := make(rowsOracle, len(o))
	for i, row := range o {
		for _, j := range row {
			cols[j] = append(cols[j], int32(i))
		}
	}
	return cols
}

// classify is Support.Classify from first principles: the longest row and
// column, the cell count, and the degeneracy by peeling a row or column of
// least remaining degree at a time.
func (o rowsOracle) classify(d int) matrix.Class {
	n, cols := len(o), o.cols()
	longest := func(lists rowsOracle) int {
		m := 0
		for _, l := range lists {
			m = max(m, len(l))
		}
		return m
	}
	rs, cs := longest(o) <= d, longest(cols) <= d
	nnz := len(o.entries())
	alive := [2][]bool{make([]bool, n), make([]bool, n)} // rows, columns
	for i := range n {
		alive[0][i], alive[1][i] = true, true
	}
	degeneracy := 0
	for range 2 * n {
		side, at, least := 0, -1, n+1
		for s, lists := range [2]rowsOracle{o, cols} {
			for v, l := range lists {
				if !alive[s][v] {
					continue
				}
				deg := 0
				for _, u := range l {
					if alive[1-s][u] {
						deg++
					}
				}
				if deg < least {
					side, at, least = s, v, deg
				}
			}
		}
		alive[side][at] = false
		degeneracy = max(degeneracy, least)
	}
	switch {
	case rs && cs:
		return matrix.US
	case rs:
		return matrix.RS
	case cs:
		return matrix.CS
	case degeneracy <= d:
		return matrix.BD
	case nnz <= d*n:
		return matrix.AS
	}
	return matrix.GM
}

// listed lists o cell by cell.
func (o rowsOracle) listed() *RowList {
	var l RowList
	for i, row := range o {
		for _, j := range row {
			l.Add(int32(i), j)
		}
	}
	return &l
}

// disagree names the first reader of s that disagrees with o at parameter
// d, or returns "".
func (o rowsOracle) disagree(s *matrix.Support, d int) string {
	n := len(o)
	if s.N != n || s.NNZ != len(o.entries()) || len(s.Off) != n+1 || len(s.Col) != s.NNZ {
		return "shape"
	}
	for i := range n {
		if !slices.Equal(s.Row(i), o[i]) || s.RowLen(i) != len(o[i]) {
			return "Row"
		}
		for j := range n {
			if s.Has(i, j) != o.has(i, j) {
				return "Has"
			}
		}
	}
	if !slices.Equal(s.Entries(), o.entries()) {
		return "Entries"
	}
	tr, cols := s.Transpose(), o.cols()
	for j := range n {
		if !slices.Equal(tr.Row(j), cols[j]) {
			return "Transpose"
		}
	}
	longest := 0
	for _, c := range cols {
		longest = max(longest, len(c))
	}
	if s.MaxColNNZ() != longest {
		return "MaxColNNZ"
	}
	if s.Classify(d) != o.classify(d) || s.ClassifyWith(d, make([]int32, n)) != o.classify(d) {
		return "Classify"
	}
	if !o.listed().Lists(s) {
		return "Lists"
	}
	// One cell more or one cell fewer is another structure.
	if e := o.entries(); len(e) > 0 {
		fewer := make(rowsOracle, n)
		for i, row := range o {
			fewer[i] = slices.Clone(row)
		}
		last := e[len(e)-1][0]
		fewer[last] = fewer[last][:len(fewer[last])-1]
		if fewer.listed().Lists(s) {
			return "Lists of one cell fewer"
		}
	}
	for i, row := range o {
		if len(row) < n {
			more := slices.Clone(o)
			for j := int32(0); ; j++ {
				if !slices.Contains(row, j) {
					more[i] = append(slices.Clone(row), j)
					slices.Sort(more[i])
					break
				}
			}
			if more.listed().Lists(s) {
				return "Lists of one cell more"
			}
			break
		}
	}
	return ""
}

// TestSupportFormsAgree: a support built by NewSupport from its entries in
// any order, by RowList.Support from a listing, and by the plan decoder
// from an envelope agrees with a plain row-list oracle in every reader:
// Row, Has, Entries, Transpose, MaxColNNZ, Classify and RowList.Lists.
func TestSupportFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prop := func(seed int64) bool {
		n, d := 1+rng.Intn(16), 1+rng.Intn(4)
		var oracles [3]rowsOracle
		var built [3][]*matrix.Support
		for m := range oracles {
			o := randomRows(rng, n, d)
			oracles[m] = o
			e := o.entries()
			if len(e) > 0 {
				e = append(e, e[rng.Intn(len(e))]) // a duplicate collapses
			}
			rng.Shuffle(len(e), func(a, b int) { e[a], e[b] = e[b], e[a] })
			listed, err := o.listed().Support(n)
			if err != nil {
				t.Logf("RowList.Support: %v", err)
				return false
			}
			built[m] = []*matrix.Support{matrix.NewSupport(n, e), listed}
		}
		p, err := Prepare(built[0][0], built[1][0], built[2][0], Options{Ring: ring.Counting{}, Algorithm: "trivial", D: d})
		if err != nil {
			t.Logf("prepare: %v", err)
			return false
		}
		dec, err := DecodePrepared(bytes.NewReader(encode(t, p)))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		inst := dec.inner.Inst
		for m, s := range []*matrix.Support{inst.Ahat, inst.Bhat, inst.Xhat} {
			built[m] = append(built[m], s)
		}
		for m, o := range oracles {
			for k, s := range built[m] {
				if what := o.disagree(s, d); what != "" {
					t.Logf("n=%d d=%d, support %d built by %s: %s disagrees with the oracle %v",
						n, d, m, [...]string{"NewSupport", "RowList.Support", "the decoder"}[k], what, o)
					return false
				}
			}
		}
		return dec.Classes == p.Classes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRefusesBadSupports: the decoder refuses an envelope whose
// support section is cut short at any byte, names a column out of range or
// out of order, or lists another number of rows than the dimension, each
// with ErrEnvelope and a reason, never a panic.
func TestDecodeRefusesBadSupports(t *testing.T) {
	p := envShapes(t)[3].p // trivial on Blocks(8, 2)
	env := encode(t, p)
	in := p.inner
	start := hdrLen + 4 + len(p.Algorithm) + 4 + len(in.Name) + 4 + len(in.R.Name()) + 3*8
	end := start
	for _, sup := range []*matrix.Support{in.Inst.Ahat, in.Inst.Bhat, in.Inst.Xhat} {
		end += 4 + 4*sup.N + 4*sup.NNZ
	}
	refuse := func(what string, env []byte, want string) {
		t.Helper()
		_, err := DecodePrepared(bytes.NewReader(reseal(env)))
		if !errors.Is(err, ErrEnvelope) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err=%v, want ErrEnvelope with %q", what, err, want)
		}
	}
	for cut := start; cut < end; cut++ {
		refuse("support section cut short", slices.Clone(env[:cut]), "")
	}

	// A's row 0 of Blocks(8, 2) holds columns 0 and 1: its count sits after
	// A's row count, its columns after that.
	n := in.Inst.N
	if got := in.Inst.Ahat.Row(0); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("A's row 0 is %v", got)
	}
	patch := func(at int, v int32) []byte {
		e := slices.Clone(env)
		binary.LittleEndian.PutUint32(e[at:], uint32(v))
		return e
	}
	refuse("column n", patch(start+12, int32(n)), "out of range")
	refuse("repeated column", patch(start+12, 0), "not strictly ascending")
	refuse("row count n-1", patch(start, int32(n-1)), "want 8")
	if _, err := DecodePrepared(bytes.NewReader(reseal(slices.Clone(env)))); err != nil {
		t.Fatalf("the unpatched envelope: %v", err)
	}
}
