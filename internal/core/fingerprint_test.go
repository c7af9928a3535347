package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// fpSupports builds three related supports from an entry list given in any
// order.
func fpSupports(n int, entries [][2]int) (a, b, x *matrix.Support) {
	return matrix.NewSupport(n, entries), matrix.NewSupport(n, entries), matrix.NewSupport(n, entries)
}

// TestFingerprintDeterministic feeds the same structure through differently
// ordered construction paths — a shuffled entry slice and a Go map (whose
// iteration order changes run to run) — and demands the identical key.
func TestFingerprintDeterministic(t *testing.T) {
	const n = 32
	var entries [][2]int
	rng := rand.New(rand.NewSource(7))
	for len(entries) < 3*n {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	opts := Options{Ring: ring.Counting{}}

	a1, b1, x1 := fpSupports(n, entries)
	want, err := Fingerprint(a1, b1, x1, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Shuffled slice order.
	shuffled := append([][2]int(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a2, b2, x2 := fpSupports(n, shuffled)
	if got, _ := Fingerprint(a2, b2, x2, opts); got != want {
		t.Errorf("shuffled construction changed the fingerprint:\n%s\n%s", got, want)
	}

	// Map-iteration order (randomized by the runtime).
	set := map[[2]int]struct{}{}
	for _, e := range entries {
		set[e] = struct{}{}
	}
	for trial := 0; trial < 5; trial++ {
		var fromMap [][2]int
		for e := range set {
			fromMap = append(fromMap, e)
		}
		a3, b3, x3 := fpSupports(n, fromMap)
		if got, _ := Fingerprint(a3, b3, x3, opts); got != want {
			t.Fatalf("map-order construction changed the fingerprint (trial %d)", trial)
		}
	}
}

// TestFingerprintDiscriminates checks that every plan-relevant input is
// part of the key, and that the plan-irrelevant ones are not.
func TestFingerprintDiscriminates(t *testing.T) {
	const n = 16
	entries := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	a, b, x := fpSupports(n, entries)
	base, err := Fingerprint(a, b, x, Options{Ring: ring.Counting{}})
	if err != nil {
		t.Fatal(err)
	}

	// Different structure.
	a2 := matrix.NewSupport(n, append(append([][2]int(nil), entries...), [2]int{5, 5}))
	if got, _ := Fingerprint(a2, b, x, Options{Ring: ring.Counting{}}); got == base {
		t.Error("structure change not reflected")
	}
	// Different ring.
	if got, _ := Fingerprint(a, b, x, Options{Ring: ring.Boolean{}}); got == base {
		t.Error("ring change not reflected")
	}
	// Different algorithm ("" normalizes to "auto"). The key is the request:
	// an explicit "trivial" keys apart from an "auto" that keeps the trivial
	// plan.
	for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
		if got, _ := Fingerprint(a, b, x, Options{Ring: ring.Counting{}, Algorithm: alg}); got == base {
			t.Errorf("algorithm change to %s not reflected", alg)
		}
	}
	if got, _ := Fingerprint(a, b, x, Options{Ring: ring.Counting{}, Algorithm: "auto"}); got != base {
		t.Error(`"" and "auto" should share a key`)
	}
	// D: 0 resolves to the inferred d, so an explicit equal d shares the key.
	d := ResolveD(0, a, b, x)
	if got, _ := Fingerprint(a, b, x, Options{Ring: ring.Counting{}, D: d}); got != base {
		t.Error("explicit resolved d should share the key with D: 0")
	}
	if got, _ := Fingerprint(a, b, x, Options{Ring: ring.Counting{}, D: d + 3}); got == base {
		t.Error("d change not reflected")
	}

	// Dimension mismatch errors.
	if _, err := Fingerprint(a, b, matrix.NewSupport(n+1, nil), Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// goldenFingerprints pins the bytes of lbmm.fp.v1: plan-store file names and
// shard ownership are these strings, so a change to the serialization that
// keeps the domain tag must fail here. The first two are what
// `lbmm fingerprint -workload us -n 64 -d 3 -ring counting` and
// `-workload blocks -n 32 -d 4 -ring gfp` print; the last names an
// algorithm longer than the writer's buffer.
var goldenFingerprints = []struct {
	name            string
	inst            func() (a, b, x *matrix.Support)
	ring, alg, want string
	d               int
}{
	{"us n=64 d=3 counting", func() (a, b, x *matrix.Support) {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, 64, 3, 42)
		return inst.Ahat, inst.Bhat, inst.Xhat
	}, "counting", "", "c1a557378193b2e240b52edfab13ff46104d261dcdaec2799fe367cae772782a", 3},
	{"blocks n=32 d=4 gfp", func() (a, b, x *matrix.Support) {
		inst := workload.Blocks(32, 4)
		return inst.Ahat, inst.Bhat, inst.Xhat
	}, "gfp", "", "c3445e3d40c8a12cc22a97a275e833972ea637d140243124bd2cf69164f338bd", 4},
	{"n=1 empty rows", func() (a, b, x *matrix.Support) {
		return matrix.NewSupport(1, [][2]int{{0, 0}}), matrix.NewSupport(1, nil), matrix.NewSupport(1, nil)
	}, "real", "", "7b58ffee5e79c357daab689a8e96a0ca16633ceb97096bde09091a4c11a79e94", 0},
	{"n=3 long algorithm", func() (a, b, x *matrix.Support) {
		return matrix.NewSupport(3, [][2]int{{0, 2}, {2, 0}, {2, 1}}), matrix.NewSupport(3, [][2]int{{1, 1}}), matrix.NewSupport(3, nil)
	}, "minplus", strings.Repeat("<long>", 400), "8ffa74f3ac0c68dd6e2f25cd7f91676447d941bbdaace592eead30020d9c0c31", 0},
}

func TestFingerprintGolden(t *testing.T) {
	for _, g := range goldenFingerprints {
		a, b, x := g.inst()
		r, err := matrix.RingByName(g.ring)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Ring: r, D: g.d, Algorithm: g.alg}
		got, err := Fingerprint(a, b, x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.want {
			t.Errorf("%s: fingerprint %s, want %s", g.name, got, g.want)
		}
		got, err = FingerprintValues(matrix.Random(a, r, 1), matrix.Random(b, r, 2), x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.want {
			t.Errorf("%s: value fingerprint %s, want %s", g.name, got, g.want)
		}
	}
}

// TestFingerprintValuesMatchesSupports is the contract of the hit path:
// hashing the value rows in place gives Fingerprint of their supports, on
// random structures over every ring, with the sparsity parameter inferred or
// given, and on hand-built rows that are unsorted or repeat a column (the
// Support fallback).
func TestFingerprintValuesMatchesSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(what string, a, b *matrix.Sparse, x *matrix.Support, opts Options) {
		t.Helper()
		want, err := Fingerprint(a.Support(), b.Support(), x, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FingerprintValues(a, b, x, opts)
		if err != nil || got != want {
			t.Fatalf("%s: FingerprintValues = %s, %v; Fingerprint of the supports = %s", what, got, err, want)
		}
	}
	random := func(n, k int) *matrix.Support {
		entries := make([][2]int, k)
		for e := range entries {
			entries[e] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		return matrix.NewSupport(n, entries)
	}
	for _, name := range []string{"boolean", "counting", "minplus", "maxplus", "gfp", "real"} {
		r, err := matrix.RingByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(40)
			a := matrix.Random(random(n, rng.Intn(4*n)), r, rng.Int63())
			b := matrix.Random(random(n, rng.Intn(4*n)), r, rng.Int63())
			x := random(n, rng.Intn(3*n))
			opts := Options{Ring: r, D: rng.Intn(3), Algorithm: []string{"", "trivial", "lemma31"}[trial%3]}
			check(fmt.Sprintf("%s trial %d", name, trial), a, b, x, opts)
		}
	}

	// Rows that break the invariant: out of order, a repeated column.
	const n = 6
	r := ring.Counting{}
	a := matrix.NewSparse(n, r)
	a.Rows[1] = []matrix.Cell{{Col: 4, Val: 1}, {Col: 2, Val: 1}}
	a.Rows[3] = []matrix.Cell{{Col: 0, Val: 1}, {Col: 5, Val: 2}, {Col: 5, Val: 3}}
	b := matrix.Random(random(n, 10), r, 1)
	x := random(n, 8)
	check("unsorted A", a, b, x, Options{Ring: r})
	check("unsorted B", b, a, x, Options{Ring: r, D: 2})

	// The dimension check is Fingerprint's.
	if _, err := FingerprintValues(a, b, matrix.NewSupport(n+1, nil), Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// BenchmarkFingerprintValues times the fingerprint of a cache hit against
// the support path it replaces, on the benchmark's edge structure (n=256,
// d=4, US:US:US).
func BenchmarkFingerprintValues(b *testing.B) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	r := ring.Counting{}
	ma, mb := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	opts := Options{Ring: r}
	b.Run("values", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FingerprintValues(ma, mb, inst.Xhat, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("supports", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Fingerprint(ma.Support(), mb.Support(), inst.Xhat, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
