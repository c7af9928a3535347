package ring

// localStrassenCutoff is the block size below which LocalMul falls back to
// the schoolbook product. Local computation is free in the model; Strassen
// here only speeds up the host simulation for larger leaves.
const localStrassenCutoff = 64

// LocalMul writes the product of two size×size row-major matrices over a
// field into c (size² entries, overwritten), using local Strassen recursion
// above a cutoff. Inputs are read-only and must not alias c. It is the local
// block product at a Strassen leaf, for both engines.
func LocalMul(f Field, a, b, c []Value, size int) {
	zero := f.Zero()
	for i := range c[:size*size] {
		c[i] = zero
	}
	if size == 0 {
		return
	}
	if size < localStrassenCutoff || size%2 != 0 {
		naiveMulInto(f, a, b, c, size)
		return
	}
	strassenMulInto(f, a, b, c, size)
}

func naiveMulInto(f Field, a, b, c []Value, size int) {
	for i := 0; i < size; i++ {
		arow := a[i*size : (i+1)*size]
		crow := c[i*size : (i+1)*size]
		for l := 0; l < size; l++ {
			av := arow[l]
			if f.Eq(av, f.Zero()) {
				continue
			}
			brow := b[l*size : (l+1)*size]
			for j := 0; j < size; j++ {
				crow[j] = f.Add(crow[j], f.Mul(av, brow[j]))
			}
		}
	}
}

// quad extracts quadrant q (0=11,1=12,2=21,3=22) of an s×s matrix.
func quad(m []Value, s, q int) []Value {
	h := s / 2
	r0, c0 := (q/2)*h, (q%2)*h
	out := make([]Value, h*h)
	for i := 0; i < h; i++ {
		copy(out[i*h:(i+1)*h], m[(r0+i)*s+c0:(r0+i)*s+c0+h])
	}
	return out
}

func addVec(f Field, a, b []Value) []Value {
	out := make([]Value, len(a))
	for i := range a {
		out[i] = f.Add(a[i], b[i])
	}
	return out
}

func subVec(f Field, a, b []Value) []Value {
	out := make([]Value, len(a))
	for i := range a {
		out[i] = f.Sub(a[i], b[i])
	}
	return out
}

// mul is LocalMul into a fresh h×h matrix.
func mul(f Field, a, b []Value, h int) []Value {
	c := make([]Value, h*h)
	LocalMul(f, a, b, c, h)
	return c
}

func strassenMulInto(f Field, a, b, c []Value, s int) {
	h := s / 2
	a11, a12, a21, a22 := quad(a, s, 0), quad(a, s, 1), quad(a, s, 2), quad(a, s, 3)
	b11, b12, b21, b22 := quad(b, s, 0), quad(b, s, 1), quad(b, s, 2), quad(b, s, 3)

	m1 := mul(f, addVec(f, a11, a22), addVec(f, b11, b22), h)
	m2 := mul(f, addVec(f, a21, a22), b11, h)
	m3 := mul(f, a11, subVec(f, b12, b22), h)
	m4 := mul(f, a22, subVec(f, b21, b11), h)
	m5 := mul(f, addVec(f, a11, a12), b22, h)
	m6 := mul(f, subVec(f, a21, a11), addVec(f, b11, b12), h)
	m7 := mul(f, subVec(f, a12, a22), addVec(f, b21, b22), h)

	c11 := addVec(f, subVec(f, addVec(f, m1, m4), m5), m7)
	c12 := addVec(f, m3, m5)
	c21 := addVec(f, m2, m4)
	c22 := addVec(f, addVec(f, subVec(f, m1, m2), m3), m6)

	for i := 0; i < h; i++ {
		copy(c[i*s:i*s+h], c11[i*h:(i+1)*h])
		copy(c[i*s+h:(i+1)*s], c12[i*h:(i+1)*h])
		copy(c[(h+i)*s:(h+i)*s+h], c21[i*h:(i+1)*h])
		copy(c[(h+i)*s+h:(h+i+1)*s], c22[i*h:(i+1)*h])
	}
}
