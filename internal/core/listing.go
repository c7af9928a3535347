package core

import (
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// RowList is one matrix's structure in the order Fingerprint serializes it:
// every non-empty row, ascending, as its index, its length and its columns.
// It is built cell by cell with Add or a support at a time with AddSupport;
// the zero value lists nothing.
type RowList struct {
	// seq holds i, len, j_1 … j_len for each non-empty row.
	seq []int32
	nnz int
	// open is the index in seq of the last row's length; 0 before any row
	// (a length never sits at index 0).
	open int
}

// Reset empties r, keeping its storage.
func (r *RowList) Reset() { r.seq, r.nnz, r.open = r.seq[:0], 0, 0 }

// Len is the number of cells listed.
func (r *RowList) Len() int { return r.nnz }

// Add lists cell (i, j). Cells must come strictly ascending in (i, j) with
// both indices in [0, n); the caller checks that.
func (r *RowList) Add(i, j int32) {
	if r.open == 0 || r.seq[r.open-1] != i {
		r.seq = append(r.seq, i, 0)
		r.open = len(r.seq) - 1
	}
	r.seq[r.open]++
	r.seq = append(r.seq, j)
	r.nnz++
}

// Grow makes room to list cells more cells, in rows of dimension n, without
// reallocating.
func (r *RowList) Grow(cells, n int) {
	r.seq = slices.Grow(r.seq, cells+2*min(cells, n))
}

// AddSupport lists every row of s, which must be all r lists.
func (r *RowList) AddSupport(s *matrix.Support) {
	for i := range s.N {
		if row := s.Row(i); len(row) > 0 {
			r.seq = append(append(r.seq, int32(i), int32(len(row))), row...)
		}
	}
	r.nnz += s.NNZ
	r.open = 0
}

// AddSparse lists the stored cells of m, appending their values to vals in
// the same order, and returns vals. It reports false, having listed part of
// m, when m has other than m.N rows or a row whose columns are not strictly
// ascending in [0, m.N): what the exported Rows field allows and Sparse's
// invariant does not.
func (r *RowList) AddSparse(m *matrix.Sparse, vals []ring.Value) ([]ring.Value, bool) {
	if len(m.Rows) != m.N {
		return vals, false
	}
	for i, row := range m.Rows {
		prev := int32(-1)
		for _, c := range row {
			if c.Col <= prev || int(c.Col) >= m.N {
				return vals, false
			}
			prev = c.Col
			r.Add(int32(i), c.Col)
			vals = append(vals, c.Val)
		}
	}
	return vals, true
}

// Set makes r list what o lists, into r's own storage.
func (r *RowList) Set(o *RowList) {
	r.seq = append(r.seq[:0], o.seq...)
	r.nnz, r.open = o.nnz, o.open
}

// Equal reports whether r and o list the same structure.
func (r *RowList) Equal(o *RowList) bool { return slices.Equal(r.seq, o.seq) }

// Lists reports whether r lists exactly the structure of s: the same cell
// count, and every listed row's columns equal to s's columns of that row, so
// every other row of s is empty.
func (r *RowList) Lists(s *matrix.Support) bool {
	if r.nnz != s.NNZ {
		return false
	}
	for seq := r.seq; len(seq) > 0; {
		i, k := int(seq[0]), int(seq[1])
		if i >= s.N || !slices.Equal(s.Col[s.Off[i]:s.Off[i+1]], seq[2:2+k]) {
			return false
		}
		seq = seq[2+k:]
	}
	return true
}

// Support builds the listed structure as a support of dimension n, into
// storage of its own: the row offsets and the column slab in one pass over
// the listing, a row left out of it given no columns.
func (r *RowList) Support(n int) (*matrix.Support, error) {
	if n < 1 {
		return matrix.SupportFromCSR(n, nil, nil)
	}
	off, col := make([]int32, n+1), make([]int32, 0, r.nnz)
	next := 0 // the first row whose offset is not yet set
	for seq := r.seq; len(seq) > 0; {
		i, k := int(seq[0]), int(seq[1])
		if i < next || i >= n {
			return nil, fmt.Errorf("core: listed row %d out of order for n=%d", i, n)
		}
		for ; next <= i; next++ {
			off[next] = int32(len(col))
		}
		col = append(col, seq[2:2+k]...)
		seq = seq[2+k:]
	}
	for ; next <= n; next++ {
		off[next] = int32(len(col))
	}
	return matrix.SupportFromCSR(n, off, col)
}

// Listing is the structure of one multiply — A, B and X̂ in dimension N —
// listed once: what a served value set is matched against and, on a miss,
// fingerprinted and compiled from. Its SHA-256 is Fingerprint's.
type Listing struct {
	N       int
	A, B, X RowList
}

// Reset empties l for a structure of dimension n, keeping its storage.
func (l *Listing) Reset(n int) {
	l.N = n
	l.A.Reset()
	l.B.Reset()
	l.X.Reset()
}

// HeldBytes is the size of the arrays behind l's three listings: what l
// pins while it is kept for reuse.
func (l *Listing) HeldBytes() int {
	return (cap(l.A.seq) + cap(l.B.seq) + cap(l.X.seq)) * int(unsafe.Sizeof(int32(0)))
}

// ListSupports lists three supports of one dimension.
func ListSupports(ahat, bhat, xhat *matrix.Support) *Listing {
	l := &Listing{N: ahat.N}
	l.A.AddSupport(ahat)
	l.B.AddSupport(bhat)
	l.X.AddSupport(xhat)
	return l
}

// Supports builds the listed structure as three supports of their own:
// what a miss compiles from.
func (l *Listing) Supports() (ahat, bhat, xhat *matrix.Support, err error) {
	if ahat, err = l.A.Support(l.N); err == nil {
		if bhat, err = l.B.Support(l.N); err == nil {
			xhat, err = l.X.Support(l.N)
		}
	}
	return ahat, bhat, xhat, err
}

// resolveD is ResolveD over the listed structure.
func (l *Listing) resolveD(d int) int {
	if d > 0 {
		return d
	}
	return max(1, perRow(l.A.nnz, l.N), perRow(l.B.nnz, l.N), perRow(l.X.nnz, l.N))
}

// Fingerprint is core.Fingerprint of the listed supports, hashed from the
// listing itself.
func (l *Listing) Fingerprint(opts Options) string {
	w := newFPWriter(opts, l.resolveD(opts.D), l.N)
	defer fpWriters.Put(w)
	w.rows(&l.A)
	w.rows(&l.B)
	w.rows(&l.X)
	return w.sum()
}

// Hash is a per-process hash of everything Fingerprint keys on — the
// listing, the ring's name, the normalized algorithm and the resolved d —
// for indexing plans by structure. Equal fingerprints hash equal under one
// seed; a hash match still needs Prepared.Matches.
func (l *Listing) Hash(seed maphash.Seed, opts Options) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	rn, alg := normalize(opts)
	h.WriteString(rn)
	h.WriteByte(0)
	h.WriteString(alg)
	h.WriteByte(0)
	var head [2]uint64
	head[0], head[1] = uint64(l.resolveD(opts.D)), uint64(l.N)
	h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&head[0])), len(head)*8))
	for _, r := range []*RowList{&l.A, &l.B, &l.X} {
		// The length keeps one matrix's tail from passing for the next one's
		// head.
		head[0] = uint64(len(r.seq))
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&head[0])), 8))
		if len(r.seq) > 0 {
			h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&r.seq[0])), len(r.seq)*4))
		}
	}
	return h.Sum64()
}

// normalize returns the ring name and algorithm Fingerprint hashes for
// opts: nil is the real ring, "" is "auto".
func normalize(opts Options) (ringName, alg string) {
	r := opts.Ring
	if r == nil {
		r = ring.Real{}
	}
	alg = opts.Algorithm
	if alg == "" {
		alg = "auto"
	}
	return r.Name(), alg
}

// Matches reports whether p was prepared for exactly the structure l lists
// under opts: the ring's name, the normalized algorithm, the resolved d,
// the dimension and every listed cell, the same fields Fingerprint hashes.
// A value set listed by l may then run on p with MultiplyValues, its values
// in the order l lists them.
func (p *Prepared) Matches(l *Listing, opts Options) bool {
	rn, alg := normalize(opts)
	inst := p.inner.Inst
	return alg == p.Algorithm && l.resolveD(opts.D) == p.D && rn == p.inner.R.Name() &&
		l.N == inst.N && l.A.Lists(inst.Ahat) && l.B.Lists(inst.Bhat) && l.X.Lists(inst.Xhat)
}

// Options returns the options p's fingerprint keys on: its ring, its
// algorithm as requested and its resolved d.
func (p *Prepared) Options() Options {
	return Options{Ring: p.inner.R, Algorithm: p.Algorithm, D: p.D}
}

// Xhat is the output support p was prepared for: the positions, in
// row-major order, of the values MultiplyValues writes. It is shared and
// must not be modified.
func (p *Prepared) Xhat() *matrix.Support { return p.inner.Inst.Xhat }

// MultiplyValues executes the prepared plans on k value sets given in the
// order the structure lists them: as[l] and bs[l] hold lane l's values of
// A and B at the positions of Â and B̂ in row-major order, and xs[l]
// receives its product at the positions of X̂ (Xhat), a position on no
// triangle receiving the ring zero. Every slice must be exactly as long as
// its support. The structure is the plan's by construction — the caller
// matched it (Matches) — so no value is checked against it: only the live
// cells are read. Otherwise it is MultiplyBatch: one walk for the k lanes,
// one Report for the batch, safe for concurrent use.
func (p *Prepared) MultiplyValues(as, bs, xs [][]ring.Value, opts ExecOpts) (*Report, error) {
	res, err := p.inner.MultiplyValues(as, bs, xs, opts.machineOpts()...)
	if err != nil {
		return nil, err
	}
	return &Report{Result: *res, Classes: p.Classes, D: p.D, Band: p.Band}, nil
}
