package matrix

// Plain-text serialization of supports and sparse matrices, in the spirit
// of the Matrix Market exchange format:
//
//	%%lbmm support|matrix <ring>
//	n nnz
//	i j [value]        (0-based, one entry per line)
//
// Lines starting with '%' are comments. The format exists so the CLI can
// run the algorithms on user-supplied instances and so experiment inputs
// can be archived.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lbmm/internal/ring"
)

// WriteSupport serializes a support.
func WriteSupport(w io.Writer, s *Support) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%lbmm support\n%d %d\n", s.N, s.NNZ)
	for i := range s.N {
		for _, j := range s.Row(i) {
			fmt.Fprintf(bw, "%d %d\n", i, j)
		}
	}
	return bw.Flush()
}

// WriteSparse serializes a sparse matrix with its ring name.
func WriteSparse(w io.Writer, m *Sparse) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%lbmm matrix %s\n%d %d\n", m.R.Name(), m.N, m.NNZ())
	for i, row := range m.Rows {
		for _, c := range row {
			fmt.Fprintf(bw, "%d %d %v\n", i, c.Col, c.Val)
		}
	}
	return bw.Flush()
}

// maxReadDim caps the matrix dimension a file header may declare: the
// reader allocates O(n) row headers before seeing any entries, so an
// unvalidated header is an out-of-memory vector. 2^22 computers is far
// beyond what the simulator can usefully run anyway.
const maxReadDim = 1 << 22

type header struct {
	kind string
	ring string
	n    int
	nnz  int
}

func readHeader(sc *bufio.Scanner) (*header, error) {
	h := &header{}
	// First non-empty line: the banner.
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "%%lbmm ") {
			return nil, fmt.Errorf("matrix: bad banner %q", line)
		}
		fields := strings.Fields(line)
		h.kind = fields[1]
		if len(fields) > 2 {
			h.ring = fields[2]
		}
		break
	}
	// Dimensions line (skipping comments).
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d", &h.n, &h.nnz); err != nil {
			return nil, fmt.Errorf("matrix: bad dimensions line %q", line)
		}
		if h.n < 0 || h.n > maxReadDim {
			return nil, fmt.Errorf("matrix: dimension %d outside [0, %d]", h.n, maxReadDim)
		}
		if h.nnz < 0 || int64(h.nnz) > int64(h.n)*int64(h.n) {
			return nil, fmt.Errorf("matrix: %d entries impossible for n=%d", h.nnz, h.n)
		}
		return h, nil
	}
	return nil, fmt.Errorf("matrix: missing dimensions line")
}

// ReadSupport parses a support file.
func ReadSupport(r io.Reader) (*Support, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.kind != "support" {
		return nil, fmt.Errorf("matrix: expected support, found %q", h.kind)
	}
	// Preallocation is capped independently of the header: nnz can claim up
	// to n², far beyond what a ≤64KiB..file can actually contain; the slice
	// grows to the real entry count either way.
	capHint := h.nnz
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	entries := make([][2]int, 0, capHint)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		var i, j int
		if _, err := fmt.Sscanf(line, "%d %d", &i, &j); err != nil {
			return nil, fmt.Errorf("matrix: bad entry %q", line)
		}
		if i < 0 || i >= h.n || j < 0 || j >= h.n {
			return nil, fmt.Errorf("matrix: entry (%d,%d) out of range for n=%d", i, j, h.n)
		}
		entries = append(entries, [2]int{i, j})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) != h.nnz {
		return nil, fmt.Errorf("matrix: header says %d entries, found %d", h.nnz, len(entries))
	}
	return NewSupport(h.n, entries), nil
}

// RingByName resolves a ring name as written by WriteSparse.
func RingByName(name string) (ring.Semiring, error) {
	switch name {
	case "boolean":
		return ring.Boolean{}, nil
	case "counting":
		return ring.Counting{}, nil
	case "minplus":
		return ring.MinPlus{}, nil
	case "maxplus":
		return ring.MaxPlus{}, nil
	case "gfp":
		return ring.NewGFp(1009), nil
	case "real":
		return ring.Real{}, nil
	}
	return nil, fmt.Errorf("matrix: unknown ring %q", name)
}

// ReadSparse parses a matrix file. If r0 is nil the ring named in the file
// is used (GF(p) defaults to p=1009).
func ReadSparse(rd io.Reader, r0 ring.Semiring) (*Sparse, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.kind != "matrix" {
		return nil, fmt.Errorf("matrix: expected matrix, found %q", h.kind)
	}
	r := r0
	if r == nil {
		if r, err = RingByName(h.ring); err != nil {
			return nil, err
		}
	}
	m := NewSparse(h.n, r)
	count := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("matrix: bad entry %q", line)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		v, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("matrix: bad entry %q", line)
		}
		if i < 0 || i >= h.n || j < 0 || j >= h.n {
			return nil, fmt.Errorf("matrix: entry (%d,%d) out of range for n=%d", i, j, h.n)
		}
		m.Set(i, j, v)
		count++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if count != h.nnz {
		return nil, fmt.Errorf("matrix: header says %d entries, found %d", h.nnz, count)
	}
	return m, nil
}
