package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"lbmm/internal/matrix"
)

// fingerprintDomain versions the fingerprint serialization itself: any
// change to the byte layout below must bump it, so plans cached under the
// old scheme can never be served for a key computed under the new one.
const fingerprintDomain = "lbmm.fp.v1"

// ResolveD returns the sparsity parameter Multiply and Prepare would use:
// d itself when positive, otherwise the smallest d making every given
// support average-sparse (⌈max nnz/n⌉, at least 1).
func ResolveD(d int, supports ...*matrix.Support) int {
	if d > 0 {
		return d
	}
	for _, s := range supports {
		d = max(d, perRow(s.NNZ, s.N))
	}
	if d == 0 {
		d = 1
	}
	return d
}

// Fingerprint canonically identifies a prepared multiplication: SHA-256
// over a deterministic serialization of the three supports together with
// everything else Prepare's output depends on — the ring, the requested
// algorithm, and the *resolved* sparsity parameter (so D: 0 and an explicit
// equal D produce the same key). Two structurally equal supports fingerprint
// identically regardless of how their entry lists were ordered at
// construction, because Support stores rows sorted.
//
// The fingerprint is the serving layer's cache key (content addressing):
// equal fingerprints mean Prepare is guaranteed to produce an equivalent
// plan, so a cached *Prepared may be reused for any value set realizing the
// structure.
func Fingerprint(ahat, bhat, xhat *matrix.Support, opts Options) (string, error) {
	if ahat.N != bhat.N || ahat.N != xhat.N {
		return "", fmt.Errorf("core: dimension mismatch %d/%d/%d", ahat.N, bhat.N, xhat.N)
	}
	w := newFPWriter(opts, ResolveD(opts.D, ahat, bhat, xhat), ahat.N)
	defer fpWriters.Put(w)
	w.support(ahat)
	w.support(bhat)
	w.support(xhat)
	return w.sum(), nil
}

// perRow is the d that makes nnz entries average-sparse in dimension n.
func perRow(nnz, n int) int { return (nnz + n - 1) / n }

// fpWriter is the one serialization behind Fingerprint and
// Listing.Fingerprint: the header, then per matrix its entry count and each
// non-empty row as (index, length, columns), integers as little-endian
// uint64 and columns as uint32. Fields are appended to buf and handed to
// SHA-256 a buffer at a time.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

// fpWriters recycles writers, hash state and buffer together.
var fpWriters = sync.Pool{New: func() any {
	return &fpWriter{h: sha256.New(), buf: make([]byte, 0, 1024)}
}}

// newFPWriter takes a writer from the pool and writes the header: domain,
// ring, algorithm ("" is "auto"), resolved d and n.
func newFPWriter(opts Options, d, n int) *fpWriter {
	w := fpWriters.Get().(*fpWriter)
	w.h.Reset()
	w.buf = w.buf[:0]
	rn, alg := normalize(opts)
	w.str(fingerprintDomain)
	w.str(rn)
	w.str(alg)
	w.int(d)
	w.int(n)
	return w
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// reserve makes room for k more bytes in buf, flushing it when they would
// not fit.
func (w *fpWriter) reserve(k int) {
	if len(w.buf)+k > cap(w.buf) {
		w.flush()
	}
}

func (w *fpWriter) int(v int) {
	w.reserve(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

// str writes a length-prefixed string; one longer than buf goes to the hash
// directly.
func (w *fpWriter) str(s string) {
	w.int(len(s))
	w.reserve(len(s))
	if len(s) > cap(w.buf) {
		w.h.Write([]byte(s))
		return
	}
	w.buf = append(w.buf, s...)
}

// support writes a support: its entry count, then each non-empty row.
func (w *fpWriter) support(s *matrix.Support) {
	w.int(s.NNZ)
	for i := range s.N {
		if row := s.Row(i); len(row) > 0 {
			w.row(i, row)
		}
	}
}

// rows writes a listed matrix as support writes its support.
func (w *fpWriter) rows(r *RowList) {
	w.int(r.nnz)
	for seq := r.seq; len(seq) > 0; {
		k := int(seq[1])
		w.row(int(seq[0]), seq[2:2+k])
		seq = seq[2+k:]
	}
}

// row writes one row: its index, its length, then its columns. It makes
// room for the whole row at once; a row longer than buf goes in the
// buffer-sized pieces that fit after each flush.
func (w *fpWriter) row(i int, cols []int32) {
	w.reserve(16 + 4*len(cols))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(i))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(cols)))
	for {
		n := len(w.buf)
		k := min(len(cols), (cap(w.buf)-n)/4)
		w.buf = w.buf[:n+4*k]
		b := w.buf[n:]
		for _, j := range cols[:k] {
			binary.LittleEndian.PutUint32(b, uint32(j))
			b = b[4:]
		}
		if cols = cols[k:]; len(cols) == 0 {
			return
		}
		w.flush()
	}
}

// sum flushes buf and returns the digest in hex.
func (w *fpWriter) sum() string {
	w.flush()
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], w.h.Sum(w.buf[:0]))
	return string(out[:])
}
