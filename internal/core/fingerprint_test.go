package core

import (
	"math/rand"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
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
