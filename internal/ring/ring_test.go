package ring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// drawing draws a "natural" element of r: Zero, One, or random, so identity
// and annihilation cases get exercised by the property tests.
func draw(r Semiring, rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return r.Zero()
	case 1:
		return r.One()
	default:
		return r.Rand(rng)
	}
}

func forAllTriples(t *testing.T, r Semiring, prop func(a, b, c Value) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		a, b, c := draw(r, rng), draw(r, rng), draw(r, rng)
		return prop(a, b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("%s: %v", r.Name(), err)
	}
}

func TestSemiringAxioms(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			forAllTriples(t, r, func(a, b, c Value) bool {
				// Add associative + commutative.
				if !r.Eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
					return false
				}
				return r.Eq(r.Add(a, b), r.Add(b, a))
			})
			forAllTriples(t, r, func(a, b, c Value) bool {
				// Mul associative.
				return r.Eq(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c)))
			})
			forAllTriples(t, r, func(a, b, c Value) bool {
				// Distributivity a(b+c) = ab + ac.
				return r.Eq(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c)))
			})
			forAllTriples(t, r, func(a, _, _ Value) bool {
				// Identities and annihilator.
				if !r.Eq(r.Add(a, r.Zero()), a) {
					return false
				}
				if !r.Eq(r.Mul(a, r.One()), a) {
					return false
				}
				if !r.Eq(r.Mul(r.One(), a), a) {
					return false
				}
				return r.Eq(r.Mul(a, r.Zero()), r.Zero())
			})
		})
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, f := range Fields() {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			check := func(int64) bool {
				a, b := draw(f, rng), draw(f, rng)
				// a + (-a) = 0 and a - b = a + (-b).
				if !f.Eq(f.Add(a, f.Neg(a)), f.Zero()) {
					return false
				}
				return f.Eq(f.Sub(a, b), f.Add(a, f.Neg(b)))
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGFpArithmetic(t *testing.T) {
	f := NewGFp(7)
	if got := f.Mul(3, 5); got != 1 {
		t.Errorf("3*5 mod 7 = %v, want 1", got)
	}
	if got := f.Sub(2, 5); got != 4 {
		t.Errorf("2-5 mod 7 = %v, want 4", got)
	}
	if got := f.Neg(0); got != 0 {
		t.Errorf("-0 mod 7 = %v, want 0", got)
	}
	if got := f.Neg(3); got != 4 {
		t.Errorf("-3 mod 7 = %v, want 4", got)
	}
}

func TestGFpRejectsBadModulus(t *testing.T) {
	for _, p := range []int64{0, 1, 4, 9, 1 << 27} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGFp(%d) did not panic", p)
				}
			}()
			NewGFp(p)
		}()
	}
}

func TestTropicalIdentities(t *testing.T) {
	mp := MinPlus{}
	if !math.IsInf(mp.Zero(), 1) {
		t.Error("MinPlus zero must be +Inf")
	}
	if got := mp.Add(3, mp.Zero()); got != 3 {
		t.Errorf("min(3, +Inf) = %v", got)
	}
	if got := mp.Mul(3, mp.Zero()); !math.IsInf(got, 1) {
		t.Errorf("3 + Inf = %v, want +Inf (annihilator)", got)
	}
	xp := MaxPlus{}
	if !math.IsInf(xp.Zero(), -1) {
		t.Error("MaxPlus zero must be -Inf")
	}
}

func TestBooleanTruthTable(t *testing.T) {
	b := Boolean{}
	cases := []struct{ x, y, or, and Value }{
		{0, 0, 0, 0}, {0, 1, 1, 0}, {1, 0, 1, 0}, {1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := b.Add(c.x, c.y); got != c.or {
			t.Errorf("%v OR %v = %v, want %v", c.x, c.y, got, c.or)
		}
		if got := b.Mul(c.x, c.y); got != c.and {
			t.Errorf("%v AND %v = %v, want %v", c.x, c.y, got, c.and)
		}
	}
}

func TestRandNeverZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range All() {
		for i := 0; i < 200; i++ {
			if v := r.Rand(rng); r.Eq(v, r.Zero()) {
				t.Errorf("%s: Rand produced Zero", r.Name())
			}
		}
	}
}

func TestRealEqTolerance(t *testing.T) {
	r := Real{}
	if !r.Eq(1.0, 1.0+1e-12) {
		t.Error("Real.Eq should tolerate tiny relative error")
	}
	if r.Eq(1.0, 1.1) {
		t.Error("Real.Eq should reject 10% error")
	}
	if !r.Eq(0, 0) {
		t.Error("Real.Eq(0,0)")
	}
}

func TestAsField(t *testing.T) {
	if _, ok := AsField(Boolean{}); ok {
		t.Error("Boolean must not be a field")
	}
	if _, ok := AsField(Real{}); !ok {
		t.Error("Real must be a field")
	}
	if _, ok := AsField(NewGFp(13)); !ok {
		t.Error("GFp must be a field")
	}
}
