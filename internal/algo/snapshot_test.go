package algo

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// prepareFor builds a Prepared for an instance with the named algorithm.
func prepareFor(t *testing.T, r ring.Semiring, inst *graph.Instance, name string) *Prepared {
	t.Helper()
	var p *Prepared
	var err error
	switch name {
	case "trivial":
		p, err = PrepareTrivial(r, inst)
	case "lemma31":
		p, err = PrepareLemma31(r, inst)
	case "theorem42":
		p, err = PrepareTheorem42(r, inst)
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	return p
}

// snapshot writes p's compiled state as a sealed test envelope.
func snapshot(t *testing.T, p *Prepared) []byte {
	t.Helper()
	w := lbm.NewWireWriter("algotest", 1)
	if err := p.EncodeCompiled(w); err != nil {
		t.Fatalf("encode: %v", err)
	}
	env, err := w.Bytes()
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	return env
}

// restore reads a test envelope back, insisting the body is fully consumed.
func restore(env []byte) (*Prepared, error) {
	r, err := lbm.ReadWire(bytes.NewReader(env), "algotest", 1)
	if err != nil {
		return nil, err
	}
	q, err := DecodeCompiledPrepared(r)
	if err == nil {
		err = r.Close()
	}
	return q, err
}

// reseal rewrites an envelope's header for whatever body now follows it
// (length at offset 12, CRC-32C at 16), so damage to the body reaches the
// body reader instead of stopping at the checksum.
func reseal(env []byte) []byte {
	body := env[20:]
	binary.LittleEndian.PutUint32(env[12:], uint32(len(body)))
	binary.LittleEndian.PutUint32(env[16:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return env
}

// TestSnapshotRoundTripDifferential checks that a decoded snapshot computes
// exactly what the original prepared form computes — scalar and batched —
// across workloads, rings and every algorithm with a compiled form.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	cases := []struct {
		name string
		inst *graph.Instance
	}{
		{"blocks", workload.Blocks(24, 4)},
		{"mixed", workload.Mixed(28, 4, 7)},
		{"us", workload.Instance(matrix.US, matrix.US, matrix.US, 24, 3, 11)},
		{"hotpair", workload.HotPair(16)},
	}
	rings := []ring.Semiring{ring.Boolean{}, ring.MinPlus{}, ring.NewGFp(257), ring.Real{}}
	for _, tc := range cases {
		for _, r := range rings {
			for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
				t.Run(tc.name+"/"+r.Name()+"/"+alg, func(t *testing.T) {
					p := prepareFor(t, r, tc.inst, alg)

					env := snapshot(t, p)
					if !bytes.Equal(env, snapshot(t, p)) {
						t.Fatalf("encoding the same plan twice gave different bytes")
					}
					q, err := restore(env)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if !bytes.Equal(snapshot(t, q), env) {
						t.Fatalf("decode → encode is not a fixed point")
					}
					if q.Name != p.Name {
						t.Fatalf("name %q != %q", q.Name, p.Name)
					}
					if q.CompiledBytes() != p.CompiledBytes() {
						t.Fatalf("compiled bytes %d != %d", q.CompiledBytes(), p.CompiledBytes())
					}
					wsend, wrecv := p.NodeLoads()
					gsend, grecv := q.NodeLoads()
					if !reflect.DeepEqual(gsend, wsend) || !reflect.DeepEqual(grecv, wrecv) {
						t.Fatalf("restored node loads differ")
					}

					a := matrix.Random(tc.inst.Ahat, r, 1)
					b := matrix.Random(tc.inst.Bhat, r, 2)
					want, wres, err := multiplyOne(p, a, b)
					if err != nil {
						t.Fatalf("original multiply: %v", err)
					}
					got, gres, err := multiplyOne(q, a, b)
					if err != nil {
						t.Fatalf("restored multiply: %v", err)
					}
					if !matrix.Equal(got, want) {
						t.Fatalf("restored product differs from original")
					}
					if gres.Rounds != wres.Rounds {
						t.Fatalf("restored rounds %d != original %d", gres.Rounds, wres.Rounds)
					}
					if err := Verify(got, a, b, tc.inst.Xhat); err != nil {
						t.Fatalf("restored product wrong: %v", err)
					}

					// Batched lanes through the restored form.
					as := []*matrix.Sparse{a, matrix.Random(tc.inst.Ahat, r, 3)}
					bs := []*matrix.Sparse{b, matrix.Random(tc.inst.Bhat, r, 4)}
					wouts, wres, err := p.MultiplyBatch(as, bs, lbm.WithTrace())
					if err != nil {
						t.Fatalf("original batch: %v", err)
					}
					gouts, gres, err := q.MultiplyBatch(as, bs, lbm.WithTrace())
					if err != nil {
						t.Fatalf("restored batch: %v", err)
					}
					if !reflect.DeepEqual(gres.Profile.Export(), wres.Profile.Export()) {
						t.Fatalf("restored batch traces a different profile")
					}
					for l := range wouts {
						if !matrix.Equal(gouts[l], wouts[l]) {
							t.Fatalf("restored batch lane %d differs", l)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotHasNoMapForm checks that a restored preparation carries no
// plan for the map oracle, not even the layout, and serves the compiled walk
// to the original's oracle product.
func TestSnapshotHasNoMapForm(t *testing.T) {
	inst := workload.Blocks(16, 4)
	r := ring.Counting{}
	p := prepareFor(t, r, inst, "lemma31")
	q, err := restore(snapshot(t, p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Layout != nil {
		t.Fatalf("restored plan carries a layout nothing reads")
	}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	// The compiled walk still serves, and agrees with the original's oracle.
	want, _, err := p.MultiplyMap(a, b)
	if err != nil {
		t.Fatalf("map multiply on the original: %v", err)
	}
	outs, _, err := q.MultiplyBatch([]*matrix.Sparse{a, a}, []*matrix.Sparse{b, b})
	if err != nil {
		t.Fatalf("compiled batch on restored form: %v", err)
	}
	for l, x := range outs {
		if !matrix.Equal(x, want) {
			t.Fatalf("restored form lane %d differs from the map oracle", l)
		}
	}
}

// TestSnapshotRejectsTampering checks the decoder's own validation, behind
// the envelope checksum: a body cut short at any point — header resealed so
// the cut reaches the body reader — fails a bounds check, a plan that
// subtracts over a ring without subtraction is refused, and a GF(p)
// snapshot restores its modulus rather than the default one.
func TestSnapshotRejectsTampering(t *testing.T) {
	inst := workload.Blocks(16, 4)
	for _, alg := range []string{"trivial", "lemma31"} {
		env := snapshot(t, prepareFor(t, ring.Counting{}, inst, alg))
		for n := 20; n < len(env); n++ {
			cut := reseal(append([]byte(nil), env[:n]...))
			if _, err := restore(cut); err == nil {
				t.Fatalf("%s: body truncated to %d of %d bytes decoded cleanly", alg, n-20, len(env)-20)
			}
		}
		if _, err := restore(reseal(append(append([]byte(nil), env...), 0))); err == nil {
			t.Fatalf("%s: trailing byte after the body decoded cleanly", alg)
		}
	}
	// The body opens with the plan's name, which must name an algorithm with
	// a compiled form and agree with the plan's shape: "trivial" and
	// "lemma31" are the same length, so each can be swapped for the other.
	env := snapshot(t, prepareFor(t, ring.Counting{}, inst, "trivial"))
	for _, name := range []string{"lemma31", "xrivial"} {
		bad := append([]byte(nil), env...)
		copy(bad[24:], name)
		if _, err := restore(reseal(bad)); err == nil {
			t.Fatalf("a trivial plan named %q decoded cleanly", name)
		}
	}
	// An instruction that subtracts, in a plan over a ring that cannot, is
	// refused at decode rather than at every multiply.
	p := prepareFor(t, ring.Counting{}, inst, "lemma31")
	var seen planSeen
	p.compiled.visitRefs(&seen)
	seen.plans[0].Ops[0] = lbm.OpSub
	if _, err := restore(snapshot(t, p)); err == nil || !strings.Contains(err.Error(), "no subtraction") {
		t.Fatalf("a counting plan that subtracts: err=%v, want it refused", err)
	}
	q, err := restore(snapshot(t, prepareFor(t, ring.NewGFp(257), inst, "lemma31")))
	if err != nil {
		t.Fatalf("decode gfp: %v", err)
	}
	if f, ok := q.R.(ring.GFp); !ok || f.P != 257 {
		t.Fatalf("restored ring %#v, want GFp(257)", q.R)
	}
}

// envShapePlans are the plan shapes the core envelope tests use
// (core.envShapes): a Lemma 3.1 job, a phase-1 cube batch, a phase-1
// Strassen batch over a field and a trivial job, on blocks of 8.
func envShapePlans(t *testing.T) map[string]*Prepared {
	t.Helper()
	shapes := workload.Blocks(8, 2)
	return map[string]*Prepared{
		"shape/lemma31":  prepareFor(t, ring.Counting{}, shapes, "lemma31"),
		"shape/cube":     prepareFor(t, ring.Counting{}, shapes, "theorem42"),
		"shape/strassen": prepareFor(t, ring.NewGFp(257), shapes, "theorem42"),
		"shape/trivial":  prepareFor(t, ring.Counting{}, shapes, "trivial"),
	}
}

// TestDecodeDerivesLoads checks that the load slots and dead counts a
// decoded form derives are the ones compilation numbered — loadA, loadB, x,
// loaded and dead — and that the decoded form multiplies to the fresh
// form's product and Stats, PeakStore included, which rest on them. It runs
// over every envelope plan shape and a trivial plan on each layout: a
// uniformly sparse instance under the row layout, and one whose rows are
// longer than d (power-law) under the balanced one.
func TestDecodeDerivesLoads(t *testing.T) {
	plans := envShapePlans(t)
	for name, tc := range map[string]struct {
		inst *graph.Instance
		want lbm.Placement
	}{
		"row/trivial":      {workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 1), lbm.ByRow},
		"balanced/trivial": {workload.PowerLaw(64, 4, 1), lbm.Balanced},
	} {
		if got := choosePlacement(tc.inst); got != tc.want {
			t.Fatalf("%s: placement %v, want %v", name, got, tc.want)
		}
		plans[name] = prepareFor(t, ring.Counting{}, tc.inst, "trivial")
	}
	for name, p := range plans {
		q, err := restore(snapshot(t, p))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		fresh, back := p.compiled, q.compiled
		for _, f := range []struct {
			what      string
			got, want any
		}{
			{"loadA", back.loadA, fresh.loadA},
			{"loadB", back.loadB, fresh.loadB},
			{"x", back.x, fresh.x},
			{"loaded", back.loaded, fresh.loaded},
			{"dead", back.dead, fresh.dead},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: decoded %s differs from the compiled one", name, f.what)
			}
		}
		a, b := matrix.Random(p.Inst.Ahat, p.R, 1), matrix.Random(p.Inst.Bhat, p.R, 2)
		want, wres, err := multiplyOne(p, a, b)
		if err != nil {
			t.Fatalf("%s: fresh multiply: %v", name, err)
		}
		got, gres, err := multiplyOne(q, a, b)
		if err != nil {
			t.Fatalf("%s: decoded multiply: %v", name, err)
		}
		if !matrix.Equal(got, want) || !reflect.DeepEqual(gres.Stats, wres.Stats) {
			t.Fatalf("%s: decoded plan differs: stats %+v, want %+v", name, gres.Stats, wres.Stats)
		}
	}
}

// planSeen collects, in visit order, the plans and slot refs a compiled form
// hands a lbm.RefVisitor.
type planSeen struct {
	plans []*lbm.CompiledPlan
	refs  []lbm.SlotRef
}

func (s *planSeen) Plan(cp *lbm.CompiledPlan) { s.plans = append(s.plans, cp) }
func (s *planSeen) Ref(r lbm.SlotRef)         { s.refs = append(s.refs, r) }

// TestDecodeDerivesWhatCompileKnew checks that what the envelope no longer
// carries comes back at decode as the compiler had it: the arena sizes, and
// every plan's per-round real-message counts and OpSub flag. It runs over
// the plan shapes the core envelope tests use (a Lemma 3.1 job, a phase-1
// cube batch, a phase-1 Strassen batch over a field, a trivial job; on
// blocks of 8) and over six structures × three algorithms × two rings.
func TestDecodeDerivesWhatCompileKnew(t *testing.T) {
	plans := envShapePlans(t)
	for _, st := range []struct {
		name string
		inst *graph.Instance
	}{
		{"us256", workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)},
		{"blocks64", workload.Blocks(64, 8)},
		{"blocks128", workload.Blocks(128, 8)},
		{"mixed", workload.Mixed(128, 8, 1)},
		{"powerlaw", workload.PowerLaw(128, 4, 1)},
		{"hotpair", workload.HotPair(64)},
	} {
		for _, r := range []ring.Semiring{ring.Counting{}, ring.Real{}} {
			for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
				plans[st.name+"/"+r.Name()+"/"+alg] = prepareFor(t, r, st.inst, alg)
			}
		}
	}
	for name, p := range plans {
		q, err := restore(snapshot(t, p))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(q.compiled.sizes, p.compiled.sizes) {
			t.Fatalf("%s: decoded arena sizes differ from the compiled ones", name)
		}
		var fresh, back planSeen
		p.compiled.visitRefs(&fresh)
		q.compiled.visitRefs(&back)
		if len(back.plans) != len(fresh.plans) || !reflect.DeepEqual(back.refs, fresh.refs) {
			t.Fatalf("%s: decoded form holds %d plans and %d refs, compiled %d and %d",
				name, len(back.plans), len(back.refs), len(fresh.plans), len(fresh.refs))
		}
		for i, cp := range fresh.plans {
			if !reflect.DeepEqual(back.plans[i].Real, cp.Real) || back.plans[i].HasSub != cp.HasSub {
				t.Fatalf("%s: plan %d decodes with Real %v and HasSub %v, compiled %v and %v",
					name, i, back.plans[i].Real, back.plans[i].HasSub, cp.Real, cp.HasSub)
			}
		}
	}
}
