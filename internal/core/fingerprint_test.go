package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestBlocksShiftedKeysApart holds workload.BlocksShifted to its purpose: a
// second block structure with triangles whose fingerprint differs from
// Blocks', so the cache-miss benchmark that alternates the two misses on
// every request.
func TestBlocksShiftedKeysApart(t *testing.T) {
	const n, d = 64, 4
	plain, shifted := workload.Blocks(n, d), workload.BlocksShifted(n, d)
	if got, want := shifted.CountTriangles(), (n/d)*d*d*(d-d/2); got != want {
		t.Errorf("shifted blocks have %d triangles, want %d", got, want)
	}
	opts := Options{Ring: ring.Counting{}}
	fp, err := Fingerprint(plain.Ahat, plain.Bhat, plain.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	fpShifted, err := Fingerprint(shifted.Ahat, shifted.Bhat, shifted.Xhat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp == fpShifted {
		t.Errorf("Blocks and BlocksShifted share the fingerprint %s", fp)
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
		if got := listSparse(t, matrix.Random(a, r, 1), matrix.Random(b, r, 2), x).Fingerprint(opts); got != g.want {
			t.Errorf("%s: listing fingerprint %s, want %s", g.name, got, g.want)
		}
	}
}

// listSparse lists a multiply the way a Go caller's values are listed.
func listSparse(t testing.TB, a, b *matrix.Sparse, x *matrix.Support) *Listing {
	t.Helper()
	l := &Listing{N: a.N}
	_, okA := l.A.AddSparse(a, nil)
	_, okB := l.B.AddSparse(b, nil)
	if !okA || !okB {
		t.Fatalf("AddSparse refused a Sparse built through its API")
	}
	l.X.AddSupport(x)
	return l
}

// TestListingMatchesSupports is the contract of the hit path: the listing
// of the value rows fingerprints as Fingerprint of their supports, lists
// exactly those supports and carries the values in support order, on random
// structures over every ring, with the sparsity parameter inferred or given.
// Hand-built rows that are unsorted, repeat a column or leave [0, n) are
// refused.
func TestListingMatchesSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
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
			want, err := Fingerprint(a.Support(), b.Support(), x, opts)
			if err != nil {
				t.Fatal(err)
			}
			l := listSparse(t, a, b, x)
			if got := l.Fingerprint(opts); got != want {
				t.Fatalf("%s trial %d: listing fingerprint %s, Fingerprint of the supports %s", name, trial, got, want)
			}
			if !l.A.Lists(a.Support()) || !l.B.Lists(b.Support()) || !l.X.Lists(x) {
				t.Fatalf("%s trial %d: the listing does not list its own supports", name, trial)
			}
			if other := ListSupports(a.Support(), b.Support(), x); !other.A.Equal(&l.A) || !other.B.Equal(&l.B) || !other.X.Equal(&l.X) {
				t.Fatalf("%s trial %d: AddSparse and AddSupport list differently", name, trial)
			}
			var sa RowList
			vals, _ := sa.AddSparse(a, nil)
			k, asup := 0, a.Support()
			for i := range asup.N {
				for _, j := range asup.Row(i) {
					if vals[k] != a.Get(i, int(j)) {
						t.Fatalf("%s trial %d: value %d is not A(%d,%d)", name, trial, k, i, j)
					}
					k++
				}
			}
		}
	}

	// A listing lists one structure: a moved, added or dropped cell is
	// another.
	x := matrix.NewSupport(5, [][2]int{{0, 1}, {2, 2}, {2, 4}})
	var l RowList
	l.AddSupport(x)
	for _, other := range [][][2]int{{{0, 1}, {2, 2}}, {{0, 1}, {2, 2}, {2, 3}}, {{0, 1}, {2, 2}, {2, 4}, {4, 0}}, {{1, 1}, {2, 2}, {2, 4}}} {
		if l.Lists(matrix.NewSupport(5, other)) {
			t.Errorf("the listing of %v lists %v", x.Entries(), other)
		}
	}

	// Rows that break the invariant: out of order, a repeated column, a
	// column out of range, a row count other than n.
	const n = 6
	r := ring.Counting{}
	for what, row := range map[string][]matrix.Cell{
		"unsorted":  {{Col: 4, Val: 1}, {Col: 2, Val: 1}},
		"repeated":  {{Col: 0, Val: 1}, {Col: 5, Val: 2}, {Col: 5, Val: 3}},
		"too large": {{Col: n, Val: 1}},
		"negative":  {{Col: -1, Val: 1}},
	} {
		a := matrix.NewSparse(n, r)
		a.Rows[3] = row
		var l RowList
		if _, ok := l.AddSparse(a, nil); ok {
			t.Errorf("%s row listed", what)
		}
	}
	short := &matrix.Sparse{N: n, R: r, Rows: make([][]matrix.Cell, n-1)}
	if _, ok := new(RowList).AddSparse(short, nil); ok {
		t.Error("a matrix with n-1 rows listed")
	}
}

// BenchmarkListingFingerprint times listing a cache hit's values and
// hashing the listing against the support path, on the benchmark's edge
// structure (n=256, d=4, US:US:US).
func BenchmarkListingFingerprint(b *testing.B) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	r := ring.Counting{}
	ma, mb := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	opts := Options{Ring: r}
	b.Run("listing", func(b *testing.B) {
		b.ReportAllocs()
		var l Listing
		var vals []ring.Value
		for i := 0; i < b.N; i++ {
			l.Reset(inst.N)
			vals, _ = l.A.AddSparse(ma, vals[:0])
			vals, _ = l.B.AddSparse(mb, vals)
			l.X.AddSupport(inst.Xhat)
			_ = l.Fingerprint(opts)
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

// fpReference is the fingerprint serialization written out plainly, one
// value at a time into one buffer: the oracle of TestFingerprintRowPieces.
func fpReference(a, b, x *matrix.Support, opts Options) string {
	var buf []byte
	u64 := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	str := func(s string) { u64(len(s)); buf = append(buf, s...) }
	rn, alg := normalize(opts)
	str(fingerprintDomain)
	str(rn)
	str(alg)
	u64(ResolveD(opts.D, a, b, x))
	u64(a.N)
	for _, s := range []*matrix.Support{a, b, x} {
		u64(s.NNZ)
		for i := range s.N {
			if row := s.Row(i); len(row) > 0 {
				u64(i)
				u64(len(row))
				for _, j := range row {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
				}
			}
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestFingerprintRowPieces holds both fingerprint paths to fpReference on
// rows around and beyond the writer's buffer: a row is written whole when
// it fits and in buffer-sized pieces when it does not, and the bytes must
// not show which.
func TestFingerprintRowPieces(t *testing.T) {
	const n = 1200
	rng := rand.New(rand.NewSource(5))
	var entries [][2]int
	for i, k := range []int{1, 200, 249, 250, 251, 252, 253, 256, 500, 507, 1024, 1199} {
		for _, j := range rng.Perm(n)[:k] {
			entries = append(entries, [2]int{3 * i, j})
		}
	}
	for range 2 * n {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	a := matrix.NewSupport(n, entries)
	b := matrix.NewSupport(n, entries[len(entries)/3:])
	x := matrix.NewSupport(n, entries[:len(entries)/2])
	r := ring.Counting{}
	for _, opts := range []Options{{Ring: r}, {Ring: r, D: 7, Algorithm: "lemma31"}} {
		want := fpReference(a, b, x, opts)
		got, err := Fingerprint(a, b, x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v: fingerprint %s, want %s", opts, got, want)
		}
		if got := listSparse(t, matrix.Random(a, r, 1), matrix.Random(b, r, 2), x).Fingerprint(opts); got != want {
			t.Errorf("%+v: listing fingerprint %s, want %s", opts, got, want)
		}
	}
}
