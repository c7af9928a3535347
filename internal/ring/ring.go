// Package ring provides the algebraic structures over which low-bandwidth
// matrix multiplication runs: semirings (Boolean, tropical, counting) and
// fields (reals, prime fields GF(p)).
//
// The paper distinguishes the two because its fastest algorithms use
// subtraction (fast dense matrix multiplication) and therefore need a field,
// while the O(d^1.867)-round algorithm works over any semiring.
//
// All elements are carried in a Value (a float64). Every discrete ring in
// this package uses only integers below 2^53, which float64 represents
// exactly, so arithmetic over Boolean, GF(p), counting and tropical rings is
// exact. One message in the low-bandwidth model carries exactly one Value.
package ring

import (
	"fmt"
	"math"
	"math/rand"
)

// Value is the runtime representation of a ring element. Discrete rings use
// exactly representable integers; MinPlus/MaxPlus additionally use ±Inf as
// their additive identities.
type Value = float64

// Semiring is a commutative semiring (S, Add, Mul, Zero, One): Add is
// associative and commutative with identity Zero; Mul is associative with
// identity One and distributes over Add; Zero annihilates under Mul.
type Semiring interface {
	// Name identifies the ring in stats and CLI output.
	Name() string
	// Zero is the additive identity.
	Zero() Value
	// One is the multiplicative identity.
	One() Value
	// Add is the semiring addition.
	Add(a, b Value) Value
	// Mul is the semiring multiplication.
	Mul(a, b Value) Value
	// Eq reports whether two values are equal as ring elements.
	Eq(a, b Value) bool
	// Rand draws a random element, used by tests and workload generators.
	// The result is never Zero, so generated sparse matrices have exactly
	// the requested support.
	Rand(rng *rand.Rand) Value
}

// Field extends Semiring with additive inverses. The distributed Strassen
// multiplier requires a Field.
type Field interface {
	Semiring
	// Neg returns the additive inverse.
	Neg(a Value) Value
	// Sub returns a - b.
	Sub(a, b Value) Value
}

// ---------------------------------------------------------------------------
// Boolean semiring ({0,1}, OR, AND)

// Boolean is the Boolean semiring ({0,1}, ∨, ∧). Matrix multiplication over
// Boolean computes reachability / witness existence; triangle *detection*
// reduces to it.
type Boolean struct{}

func (Boolean) Name() string          { return "boolean" }
func (Boolean) Zero() Value           { return 0 }
func (Boolean) One() Value            { return 1 }
func (Boolean) Add(a, b Value) Value  { return math.Max(a, b) }
func (Boolean) Mul(a, b Value) Value  { return math.Min(a, b) }
func (Boolean) Eq(a, b Value) bool    { return a == b }
func (Boolean) Rand(*rand.Rand) Value { return 1 }

// ---------------------------------------------------------------------------
// Counting semiring (ℕ, +, ×)

// Counting is the semiring of non-negative integers under ordinary addition
// and multiplication. Triangle *counting* reduces to matrix multiplication
// over Counting.
type Counting struct{}

func (Counting) Name() string         { return "counting" }
func (Counting) Zero() Value          { return 0 }
func (Counting) One() Value           { return 1 }
func (Counting) Add(a, b Value) Value { return a + b }
func (Counting) Mul(a, b Value) Value { return a * b }
func (Counting) Eq(a, b Value) bool   { return a == b }
func (Counting) Rand(rng *rand.Rand) Value {
	return Value(1 + rng.Intn(8))
}

// ---------------------------------------------------------------------------
// Tropical semirings

// MinPlus is the tropical semiring (ℝ ∪ {+∞}, min, +). One step of matrix
// "multiplication" over MinPlus relaxes shortest paths; the sparse product
// corresponds to a bounded-degree APSP relaxation round.
type MinPlus struct{}

func (MinPlus) Name() string         { return "minplus" }
func (MinPlus) Zero() Value          { return math.Inf(1) }
func (MinPlus) One() Value           { return 0 }
func (MinPlus) Add(a, b Value) Value { return math.Min(a, b) }
func (MinPlus) Mul(a, b Value) Value { return a + b }
func (MinPlus) Eq(a, b Value) bool   { return a == b }
func (MinPlus) Rand(rng *rand.Rand) Value {
	return Value(1 + rng.Intn(100))
}

// MaxPlus is the tropical semiring (ℝ ∪ {−∞}, max, +), used for longest or
// widest path style recurrences.
type MaxPlus struct{}

func (MaxPlus) Name() string         { return "maxplus" }
func (MaxPlus) Zero() Value          { return math.Inf(-1) }
func (MaxPlus) One() Value           { return 0 }
func (MaxPlus) Add(a, b Value) Value { return math.Max(a, b) }
func (MaxPlus) Mul(a, b Value) Value { return a + b }
func (MaxPlus) Eq(a, b Value) bool   { return a == b }
func (MaxPlus) Rand(rng *rand.Rand) Value {
	return Value(1 + rng.Intn(100))
}

// ---------------------------------------------------------------------------
// GF(p) prime fields

// GFp is the prime field ℤ/pℤ for a prime p. All arithmetic stays within
// exactly representable integers provided p < 2^26 (so products fit 2^52).
type GFp struct {
	P int64
}

// NewGFp returns GF(p). It panics if p is not a prime in (1, 2^26), since a
// composite modulus silently breaks field axioms and exactness.
func NewGFp(p int64) GFp {
	if p <= 1 || p >= 1<<26 || !isPrime(p) {
		panic("ring: GFp modulus must be a prime below 2^26")
	}
	return GFp{P: p}
}

// ParseGFp is NewGFp with an error instead of a panic, for moduli that
// arrive from untrusted inputs (serialized plans, wire requests).
func ParseGFp(p int64) (GFp, error) {
	if p <= 1 || p >= 1<<26 || !isPrime(p) {
		return GFp{}, fmt.Errorf("ring: GFp modulus %d is not a prime below 2^26", p)
	}
	return GFp{P: p}, nil
}

func isPrime(p int64) bool {
	if p < 2 {
		return false
	}
	for q := int64(2); q*q <= p; q++ {
		if p%q == 0 {
			return false
		}
	}
	return true
}

func (f GFp) Name() string { return "gfp" }
func (f GFp) Zero() Value  { return 0 }
func (f GFp) One() Value   { return 1 }
func (f GFp) Add(a, b Value) Value {
	return Value((int64(a) + int64(b)) % f.P)
}
func (f GFp) Mul(a, b Value) Value {
	return Value((int64(a) * int64(b)) % f.P)
}
func (f GFp) Eq(a, b Value) bool { return a == b }
func (f GFp) Neg(a Value) Value {
	if a == 0 {
		return 0
	}
	return Value(f.P - int64(a))
}
func (f GFp) Sub(a, b Value) Value {
	return Value(((int64(a)-int64(b))%f.P + f.P) % f.P)
}
func (f GFp) Rand(rng *rand.Rand) Value {
	return Value(1 + rng.Int63n(f.P-1))
}

// ---------------------------------------------------------------------------
// Real field

// Real is the field of float64 numbers. Because floating-point addition is
// not associative, Eq uses a relative tolerance; the distributed algorithms
// may accumulate partial sums in a different order than the reference
// multiplier.
type Real struct{}

func (Real) Name() string         { return "real" }
func (Real) Zero() Value          { return 0 }
func (Real) One() Value           { return 1 }
func (Real) Add(a, b Value) Value { return a + b }
func (Real) Mul(a, b Value) Value { return a * b }
func (Real) Neg(a Value) Value    { return -a }
func (Real) Sub(a, b Value) Value { return a - b }
func (Real) Eq(a, b Value) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
func (Real) Rand(rng *rand.Rand) Value {
	// Small integer values keep Real products exactly comparable in most
	// tests while still exercising float arithmetic.
	return Value(1 + rng.Intn(16))
}

// ---------------------------------------------------------------------------

// All returns one instance of every semiring in this package, for
// cross-ring table tests.
func All() []Semiring {
	return []Semiring{Boolean{}, Counting{}, MinPlus{}, MaxPlus{}, NewGFp(1009), Real{}}
}

// Fields returns one instance of every field in this package.
func Fields() []Field {
	return []Field{NewGFp(1009), Real{}}
}

// AsField reports r as a Field if it is one.
func AsField(r Semiring) (Field, bool) {
	f, ok := r.(Field)
	return f, ok
}
