package fewtri

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
)

// TestEmitShapes checks that a job lowered into a program records its shape
// where a decoder reads it — the job's span, opening the program — and
// chains its plans as the exchange pass expects: an empty job emits nothing,
// Lemma 3.1 runs a chain of 6 input plans and one of 3 output plans, the
// trivial job one fetch, the naive router a fetch and a delivery. Each
// program survives the wire: it decodes to the same span, chains and bytes.
func TestEmitShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 16
	inst := graph.NewInstance(n, randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
	l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	tris, pos, _, _, _ := inst.TrianglesLive()
	lemma, err := Plan(n, l, tris, pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(p *lbm.Program) []byte {
		t.Helper()
		w := lbm.NewWireWriter("fewtest\x00", 1)
		w.Program(p)
		env, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	// chains counts the plans of each chain, in order.
	chains := func(p *lbm.Program) []int {
		var rows []int
		for _, r := range p.Routes {
			if !r.Join {
				rows = append(rows, 0)
			}
			rows[len(rows)-1]++
		}
		return rows
	}
	for _, tc := range []struct {
		shape  string
		job    *Job
		chains []int
	}{
		{"", &Job{}, nil},
		{"lemma31", lemma, []int{6, 3}},
		{"trivial", PlanTrivial(l, tris, pos), []int{1}},
		{"naive", PlanNaive(n, l, tris, pos, 0), []int{1, 1}},
	} {
		products, staged := tc.job.Extent()
		lw := lbm.NewLowering(n, nil, products, staged)
		if err := Emit(lw, tc.job); err != nil {
			t.Fatalf("%q job: %v", tc.shape, err)
		}
		p, err := lw.Program()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Finish(); err != nil {
			t.Fatalf("%q job: %v", tc.shape, err)
		}
		env := encode(p)
		r, err := lbm.ReadWire(bytes.NewReader(env), "fewtest\x00", 1)
		if err != nil {
			t.Fatal(err)
		}
		q := r.Program(n)
		if err := r.Close(); err != nil {
			t.Fatalf("%q job: decode: %v", tc.shape, err)
		}
		for _, got := range []*lbm.Program{p, q} {
			if span := got.SpanAt(0); span != tc.shape {
				t.Fatalf("%q job: program opens with span %q", tc.shape, span)
			}
			if c := chains(got); !slices.Equal(c, tc.chains) {
				t.Fatalf("%q job: chains of %v plans, want %v", tc.shape, c, tc.chains)
			}
		}
		if !bytes.Equal(encode(q), env) {
			t.Fatalf("%q job: decode → encode is not a fixed point", tc.shape)
		}
	}
}
