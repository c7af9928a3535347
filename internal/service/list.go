package service

import (
	"fmt"
	"slices"
	"strconv"
	"unsafe"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// ValueRequest is one multiply as the pipeline takes it: its structure
// listed once (core.Listing) and its values in the order the listing gives
// them. The wire readers (ListWire, ListWireValues) fill one in place,
// reusing its storage, so a warm reader allocates nothing; MultiplySubmit
// takes one. x is the buffer a lane served in place (Server.multiply)
// writes its product into, reused like the rest.
type ValueRequest struct {
	list    core.Listing
	a, b, x []ring.Value
	opts    core.Options
	trace   bool
}

// Reset readies vr for the next read into it. Its storage survives unless
// its values, its product buffer and its listing together hold more than
// maxPooledBody bytes, on bodyPool's rule, so one huge request does not pin
// its arrays for the life of whoever reuses vr.
func (vr *ValueRequest) Reset() {
	if (cap(vr.a)+cap(vr.b)+cap(vr.x))*int(unsafe.Sizeof(ring.Value(0)))+vr.list.HeldBytes() > maxPooledBody {
		*vr = ValueRequest{}
	}
}

// Fingerprint is the plan fingerprint of the request's structure:
// core.Fingerprint of the supports it lists.
func (vr *ValueRequest) Fingerprint() string { return vr.list.Fingerprint(vr.opts) }

// ListWire reads a multiply payload into dst: what ParseWireMultiply
// builds, listed. Entries and positions that arrive strictly ascending in
// (i, j), integral, in range and, for entries, non-zero — what WireEntries
// and Support.Entries emit — are listed as they are read; any other payload
// is built by ParseWireMultiply's own steps and listed from the result, so
// it lists the same structure and values, or fails with the same error.
func ListWire(dst *ValueRequest, wm *WireMultiply) error {
	dst.list.X.Reset()
	return dst.listValues(wm, listPositions(wm.N, wm.Xhat, "xhat", &dst.list.X))
}

// ListWireXhat lists a payload's output support from its wire positions
// into dst, as ListWire does: the same listing, or the same error.
func ListWireXhat(n int, xhat []WirePos, dst *core.RowList) error {
	dst.Reset()
	return listPositions(n, xhat, "xhat", dst)
}

// ListWireValues is ListWire over an output support listed beforehand by
// ListWireXhat — a session that ships its support once lists it once. xhat
// and xerr are what ListWireXhat gave: a listing error is reported where
// ListWire reports it, after the ring's and the values'. wm.Xhat is not
// read.
func ListWireValues(dst *ValueRequest, wm *WireMultiply, xhat *core.RowList, xerr error) error {
	dst.list.X.Set(xhat)
	return dst.listValues(wm, xerr)
}

// listValues lists wm's ring, values and options into vr, whose X̂ listing
// is in place or failed with xerr.
func (vr *ValueRequest) listValues(wm *WireMultiply, xerr error) error {
	ringSR, err := resolveRing(wm.Ring)
	if err != nil {
		return err
	}
	vr.list.N = wm.N
	vr.list.A.Reset()
	vr.list.B.Reset()
	if vr.a, err = listEntries(wm.N, ringSR, wm.A, "a", &vr.list.A, vr.a[:0]); err != nil {
		return err
	}
	if vr.b, err = listEntries(wm.N, ringSR, wm.B, "b", &vr.list.B, vr.b[:0]); err != nil {
		return err
	}
	if xerr != nil {
		return xerr
	}
	vr.opts = core.Options{Ring: ringSR, D: wm.D, Algorithm: wm.Algorithm}
	vr.trace = wm.Trace
	return nil
}

// listEntries lists the value cells of one matrix into list, appending
// their values to vals: directly while the cells come strictly ascending,
// integral, in range and non-zero, otherwise through buildSparse, whose
// matrix — or error — it then lists.
func listEntries(n int, r ring.Semiring, entries []wireEntry, what string, list *core.RowList, vals []ring.Value) ([]ring.Value, error) {
	if checkN(n) == nil {
		list.Grow(len(entries), n)
		if out, ok := listAscending(n, r, entries, list, slices.Grow(vals, len(entries))); ok {
			return out, nil
		}
		list.Reset()
	}
	m, err := buildSparse(n, r, entries, what)
	if err != nil {
		return vals, err
	}
	vals, _ = list.AddSparse(m, vals) // buildSparse keeps Sparse's invariant
	return vals, nil
}

// listAscending is listEntries' direct path: it reports false, having
// listed part of the cells, at the first cell that is out of order, not
// integral, out of range or zero.
func listAscending(n int, r ring.Semiring, entries []wireEntry, list *core.RowList, vals []ring.Value) ([]ring.Value, bool) {
	zero := r.Zero()
	row, col := 0, -1
	for _, e := range entries {
		i, j := int(e[0]), int(e[1])
		if float64(i) != e[0] || float64(j) != e[1] || i < row || i >= n || j < 0 || j >= n ||
			(i == row && j <= col) || r.Eq(e[2], zero) {
			return vals, false
		}
		list.Add(int32(i), int32(j))
		vals = append(vals, e[2])
		row, col = i, j
	}
	return vals, true
}

// listPositions lists support positions into list: directly while they
// come strictly ascending and in range, otherwise through buildSupport,
// whose support — or error — it then lists.
func listPositions(n int, positions []wirePos, what string, list *core.RowList) error {
	if err := checkN(n); err != nil {
		return err
	}
	list.Grow(len(positions), n)
	row, col := 0, -1
	for _, p := range positions {
		i, j := p[0], p[1]
		if i < row || i >= n || j < 0 || j >= n || (i == row && j <= col) {
			list.Reset()
			s, err := buildSupport(n, positions, what)
			if err != nil {
				return err
			}
			list.AddSupport(s)
			return nil
		}
		list.Add(int32(i), int32(j))
		row, col = i, j
	}
	return nil
}

// listRequest lists a Go caller's request. what prefixes the messages (a
// lane index, or nothing) and needs names the operands a complete request
// carries.
func listRequest(what, needs string, a, b *matrix.Sparse, xhat *matrix.Support, dst *core.Listing) (as, bs []ring.Value, err error) {
	if a == nil || b == nil || xhat == nil {
		return nil, nil, fmt.Errorf("%w: %s%s", ErrInvalid, what, needs)
	}
	if err := sameN(what, a.N, b.N, xhat.N); err != nil {
		return nil, nil, err
	}
	dst.Reset(a.N)
	as, okA := dst.A.AddSparse(a, nil)
	bs, okB := dst.B.AddSparse(b, nil)
	if !okA || !okB {
		return nil, nil, fmt.Errorf("%w: %sa value row is not strictly ascending in [0, %d)", ErrInvalid, what, a.N)
	}
	dst.X.AddSupport(xhat)
	return as, bs, nil
}

// Product is one lane's product as the pipeline computes it: Vals[k] is the
// value at the k-th position of Xhat in row-major order, the ring zero where
// the product has no entry.
type Product struct {
	Xhat *matrix.Support
	Vals []ring.Value
	Ring ring.Semiring
}

// Sparse returns the product as a matrix, its zeros dropped as Sparse.Set
// drops them, its rows carved from one slab.
func (p Product) Sparse() *matrix.Sparse {
	m := matrix.NewSparse(p.Xhat.N, p.Ring)
	zero, nnz := p.Ring.Zero(), 0
	for _, v := range p.Vals {
		if !p.Ring.Eq(v, zero) {
			nnz++
		}
	}
	slab := make([]matrix.Cell, 0, nnz)
	k := 0
	for i := range p.Xhat.N {
		row := p.Xhat.Row(i)
		start := len(slab)
		for _, j := range row {
			if v := p.Vals[k]; !p.Ring.Eq(v, zero) {
				slab = append(slab, matrix.Cell{Col: j, Val: v})
			}
			k++
		}
		if n := len(slab); n > start {
			m.Rows[i] = slab[start:n:n]
		}
	}
	return m
}

// Empty reports whether the product has no entry.
func (p Product) Empty() bool {
	zero := p.Ring.Zero()
	for _, v := range p.Vals {
		if !p.Ring.Eq(v, zero) {
			return false
		}
	}
	return true
}

// AppendEntries appends the product's entries as [[i,j,value],...]: the
// bytes AppendEntries writes for WireEntries(p.Sparse()), without building
// either.
func (p Product) AppendEntries(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, '[')
	zero, k, first := p.Ring.Zero(), 0, true
	for i := range p.Xhat.N {
		for _, j := range p.Xhat.Row(i) {
			v := p.Vals[k]
			k++
			if p.Ring.Eq(v, zero) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = strconv.AppendInt(append(b, '['), int64(i), 10)
			b = strconv.AppendInt(append(b, ','), int64(j), 10)
			var err error
			if b, err = appendNumber(append(b, ','), v); err != nil {
				return b[:start], err
			}
			b = append(b, ']')
		}
	}
	return append(b, ']'), nil
}
