package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func TestMultiplyAutoVariousRings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range ring.All() {
		n, d := 24, 3
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 11)
		a := matrix.Random(inst.Ahat, r, 1)
		b := matrix.Random(inst.Bhat, r, 2)
		x, rep, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: d})
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		want := matrix.MulReference(a, b, inst.Xhat)
		if !matrix.Equal(x, want) {
			t.Fatalf("%s: wrong product", r.Name())
		}
		if rep.Rounds == 0 && inst.CountTriangles() > 0 {
			t.Errorf("%s: zero rounds reported", r.Name())
		}
		if rep.Band != Band1Fast {
			t.Errorf("US:US:US classified as %v", rep.Band)
		}
	}
	_ = rng
}

func TestMultiplyForcedAlgorithms(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.BD, matrix.AS, 20, 2, 3)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	want := matrix.MulReference(a, b, inst.Xhat)
	for _, name := range []string{"auto", "theorem42", "lemma31", "trivial", "baseline"} {
		x, rep, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2, Algorithm: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matrix.Equal(x, want) {
			t.Fatalf("%s: wrong product", name)
		}
		_ = rep
	}
	if _, _, err := Multiply(a, b, inst.Xhat, Options{Ring: r, Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMultiplyDimensionMismatch(t *testing.T) {
	a := matrix.NewSparse(3, ring.Counting{})
	b := matrix.NewSparse(4, ring.Counting{})
	if _, _, err := Multiply(a, b, matrix.NewSupport(3, nil), Options{Ring: ring.Counting{}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMultiplyInfersD(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 16, 2, 5)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	_, rep, err := Multiply(a, b, inst.Xhat, Options{Ring: r})
	if err != nil {
		t.Fatal(err)
	}
	if rep.D < 1 || rep.D > 2 {
		t.Errorf("inferred d = %d", rep.D)
	}
}

func TestClassifyBands(t *testing.T) {
	cases := []struct {
		a, b, x matrix.Class
		want    Band
	}{
		{matrix.US, matrix.US, matrix.US, Band1Fast},
		{matrix.US, matrix.US, matrix.AS, Band1Fast},
		{matrix.US, matrix.AS, matrix.US, Band1Fast}, // symmetric
		{matrix.US, matrix.US, matrix.GM, BandOutlier},
		{matrix.GM, matrix.US, matrix.US, BandOutlier},
		{matrix.US, matrix.BD, matrix.BD, Band2Log},
		{matrix.US, matrix.AS, matrix.GM, Band2Log},
		{matrix.BD, matrix.BD, matrix.BD, Band2Log},
		{matrix.BD, matrix.AS, matrix.AS, Band2Log},
		{matrix.RS, matrix.AS, matrix.AS, Band2Log}, // RS ⊆ BD
		{matrix.CS, matrix.CS, matrix.AS, Band2Log},
		{matrix.US, matrix.GM, matrix.GM, Band3Sqrt},
		{matrix.BD, matrix.BD, matrix.GM, Band3Sqrt},
		{matrix.BD, matrix.AS, matrix.GM, Band3Sqrt},
		{matrix.AS, matrix.AS, matrix.AS, Band4Conditional},
		{matrix.AS, matrix.AS, matrix.GM, Band4Conditional},
		{matrix.GM, matrix.GM, matrix.GM, Band4Conditional},
	}
	for _, c := range cases {
		if got := Classify(c.a, c.b, c.x); got != c.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestClassifySymmetry(t *testing.T) {
	classes := []matrix.Class{matrix.US, matrix.RS, matrix.CS, matrix.BD, matrix.AS, matrix.GM}
	for _, a := range classes {
		for _, b := range classes {
			for _, x := range classes {
				base := Classify(a, b, x)
				perms := [][3]matrix.Class{
					{a, x, b}, {b, a, x}, {b, x, a}, {x, a, b}, {x, b, a},
				}
				for _, p := range perms {
					if got := Classify(p[0], p[1], p[2]); got != base {
						t.Fatalf("Classify not symmetric: (%v,%v,%v)=%v vs perm %v=%v",
							a, b, x, base, p, got)
					}
				}
			}
		}
	}
}

func TestTable2Coverage(t *testing.T) {
	rows := Table2()
	// 4 classes, multisets of size 3: C(4+3-1,3) = 20.
	if len(rows) != 20 {
		t.Fatalf("table 2 has %d rows, want 20", len(rows))
	}
	counts := map[Band]int{}
	for _, r := range rows {
		counts[r.Band]++
	}
	for _, b := range []Band{Band1Fast, BandOutlier, Band2Log, Band3Sqrt, Band4Conditional} {
		if counts[b] == 0 {
			t.Errorf("band %v missing from table", b)
		}
	}
	out := FormatTable2()
	if !strings.Contains(out, "[US:US:GM]") || !strings.Contains(out, "outlier") {
		t.Error("formatted table incomplete")
	}
}

func TestBandStringsAndBounds(t *testing.T) {
	for _, b := range []Band{Band1Fast, BandOutlier, Band2Log, Band3Sqrt, Band4Conditional} {
		if b.String() == "" {
			t.Error("empty band name")
		}
		up, lo := b.Bounds()
		if up == "?" || lo == "?" {
			t.Errorf("band %v has no bounds", b)
		}
	}
}

func TestMultiplyUnsupportedMode(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 20, 2, 3)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	want := matrix.MulReference(a, b, inst.Xhat)
	x, rep, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2, Unsupported: true})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(x, want) {
		t.Fatal("wrong product in unsupported mode")
	}
	if rep.SupportWords == 0 || rep.DisseminationRounds == 0 {
		t.Errorf("dissemination not reported: %+v", rep.Result)
	}
	// The supported run of the same instance must be much cheaper.
	_, supRep, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if supRep.Rounds >= rep.Rounds {
		t.Errorf("supported (%d) not cheaper than unsupported (%d)", supRep.Rounds, rep.Rounds)
	}
}

func TestTable2Extended(t *testing.T) {
	rows := Table2Extended()
	// C(6+3-1, 3) = 56 multisets.
	if len(rows) != 56 {
		t.Fatalf("extended table has %d rows, want 56", len(rows))
	}
	// The RS/CS rows inherit their BD-based classification: e.g.
	// {RS, CS, AS} is class 2 and {RS, CS, GM} carries the Ω(√n) bound
	// (Lemma 6.23 is literally RS×CS=GM).
	found := map[string]Band{}
	for _, r := range rows {
		found[fmt.Sprintf("%v%v%v", r.Classes[0], r.Classes[1], r.Classes[2])] = r.Band
	}
	if found["RSCSAS"] != Band2Log {
		t.Errorf("[RS:CS:AS] = %v", found["RSCSAS"])
	}
	if found["RSCSGM"] != Band3Sqrt {
		t.Errorf("[RS:CS:GM] = %v", found["RSCSGM"])
	}
	if found["USRSCS"] != Band2Log {
		t.Errorf("[US:RS:CS] = %v", found["USRSCS"])
	}
}

func TestPrepareAndReuse(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 24, 3, 11)
	p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Band != Band1Fast {
		t.Errorf("band %v", p.Band)
	}
	var rounds int
	for seed := int64(0); seed < 3; seed++ {
		a := matrix.Random(inst.Ahat, r, seed)
		b := matrix.Random(inst.Bhat, r, seed+9)
		x, rep, err := p.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(x, matrix.MulReference(a, b, inst.Xhat)) {
			t.Fatalf("seed %d: wrong product", seed)
		}
		if seed > 0 && rep.Rounds != rounds {
			t.Fatalf("rounds vary: %d vs %d", rep.Rounds, rounds)
		}
		rounds = rep.Rounds
		// Multiply is the one-lane MultiplyBatch: same product, same
		// Report, and under tracing the same exported profile.
		if rep.Lanes != 1 {
			t.Errorf("Multiply reports %d lanes, want 1", rep.Lanes)
		}
		as, bs := []*matrix.Sparse{a}, []*matrix.Sparse{b}
		xs, brep, err := p.MultiplyBatch(as, bs, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(xs[0], x) || !reflect.DeepEqual(brep, rep) {
			t.Errorf("seed %d: Multiply differs from MultiplyBatch of one lane:\n got %+v\nwant %+v", seed, rep, brep)
		}
		_, trep, err := p.MultiplyOpts(a, b, ExecOpts{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		_, tbrep, err := p.MultiplyBatch(as, bs, ExecOpts{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if trep.Profile == nil || !reflect.DeepEqual(trep.Profile.Export(), tbrep.Profile.Export()) || trep.Timeline != tbrep.Timeline {
			t.Errorf("seed %d: traced Multiply and one-lane MultiplyBatch export different profiles", seed)
		}
	}
	// Non-preparable algorithms are rejected.
	if _, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, Algorithm: "trivial"}); err == nil {
		t.Error("trivial has no prepared form")
	}
	if _, err := Prepare(inst.Ahat, matrix.NewSupport(5, nil), inst.Xhat, Options{Ring: r}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMultiplyTraceOption(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 16, 2, 5)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	_, rep, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline == "" {
		t.Error("trace requested but no timeline")
	}
	// SkipVerify path.
	if _, _, err := Multiply(a, b, inst.Xhat, Options{Ring: r, D: 2, SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	// Default ring (Real).
	ar := matrix.Random(inst.Ahat, ring.Real{}, 1)
	br := matrix.Random(inst.Bhat, ring.Real{}, 2)
	if _, rep, err := Multiply(ar, br, inst.Xhat, Options{D: 2}); err != nil || rep == nil {
		t.Fatal(err)
	}
}
