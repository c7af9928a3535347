package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// Envelope header offsets (internal/lbm/wire.go, docs/PLANSTORE.md). The
// tests patch header bytes directly, as damage on disk or a future build
// would.
const (
	hdrVersion = 8
	hdrLength  = 12
	hdrCRC     = 16
	hdrLen     = 20
)

// envShape is one prepared plan of a given shape with its inputs.
type envShape struct {
	name string
	inst *graph.Instance
	opts Options
	p    *Prepared
}

// envShapes prepares one small plan per shape the envelope can carry: a
// Lemma 3.1 job alone, a phase-1 cube batch, — over a field — a phase-1
// Strassen batch, and the trivial job.
func envShapes(t testing.TB) []envShape {
	t.Helper()
	inst := workload.Blocks(8, 2)
	shapes := []envShape{
		{name: "lemma31", opts: Options{Ring: ring.Counting{}, Algorithm: "lemma31"}},
		{name: "cube", opts: Options{Ring: ring.Counting{}, Algorithm: "theorem42"}},
		{name: "strassen", opts: Options{Ring: ring.NewGFp(257), Algorithm: "theorem42"}},
		{name: "trivial", opts: Options{Ring: ring.Counting{}, Algorithm: "trivial"}},
	}
	for i := range shapes {
		s := &shapes[i]
		s.inst = inst
		var err error
		if s.p, err = Prepare(inst.Ahat, inst.Bhat, inst.Xhat, s.opts); err != nil {
			t.Fatalf("prepare %s: %v", s.name, err)
		}
		_, rep, err := s.p.Multiply(matrix.Random(inst.Ahat, s.opts.Ring, 1), matrix.Random(inst.Bhat, s.opts.Ring, 2))
		if err != nil {
			t.Fatalf("multiply %s: %v", s.name, err)
		}
		if got := [2]int{rep.Cluster.CubeClusters, rep.Cluster.StrassenClusters}; (s.name == "lemma31" || s.name == "trivial") != (got == [2]int{}) ||
			(s.name == "cube" && got[0] == 0) || (s.name == "strassen" && got[1] == 0) {
			t.Fatalf("shape %s has cube/strassen clusters %v", s.name, got)
		}
	}
	return shapes
}

// encode returns p's envelope.
func encode(t testing.TB, p *Prepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestCubeEnvelopeIsByteStable: a cube batch is planned through maps, whose
// iteration order differs run to run, yet one structure must encode to the
// same bytes in every process, or a plan store holds a different entry under
// one fingerprint each time it is written. Prepare the same blocks
// theorem42 counting structure five times and compare the envelopes.
func TestCubeEnvelopeIsByteStable(t *testing.T) {
	inst := workload.Blocks(32, 4)
	var first []byte
	for run := range 5 {
		p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}, D: 4, Algorithm: "theorem42"})
		if err != nil {
			t.Fatal(err)
		}
		env := encode(t, p)
		if run == 0 {
			_, rep, err := p.Multiply(matrix.Random(inst.Ahat, ring.Counting{}, 1), matrix.Random(inst.Bhat, ring.Counting{}, 2))
			if err != nil || rep.Cluster.CubeClusters == 0 {
				t.Fatalf("want a plan with cube batches: err %v", err)
			}
			first = env
			continue
		}
		if !bytes.Equal(env, first) {
			t.Fatalf("run %d encodes %d bytes that differ from run 0's %d", run, len(env), len(first))
		}
	}
}

// reseal rewrites env's header length and checksum for whatever body now
// follows, so damage to the body reaches the body reader instead of
// stopping at the checksum.
func reseal(env []byte) []byte {
	body := env[hdrLen:]
	binary.LittleEndian.PutUint32(env[hdrLength:], uint32(len(body)))
	binary.LittleEndian.PutUint32(env[hdrCRC:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return env
}

// decodeAllocs decodes env and reports, with the result, the heap bytes the
// decode allocated.
func decodeAllocs(env []byte) (*Prepared, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := DecodePrepared(bytes.NewReader(env))
	runtime.ReadMemStats(&after)
	return p, after.TotalAlloc - before.TotalAlloc, err
}

// allocCap bounds what a decode of env may allocate, failed or not: the
// reader's fixed 64 KiB read-ahead, then a fixed multiple of the input (the
// body itself, then at most a few bytes of decoded state per wire byte) —
// both doubled, because the race detector doubles what TotalAlloc reports.
func allocCap(env []byte) uint64 { return 2 * (64<<10 + 16*uint64(len(env)) + 32<<10) }

// TestEnvelopeRoundTrip checks, for every plan shape, that Encode is
// byte-stable, that decode → encode is a fixed point, and that the restored
// plan is the original in everything observable: metadata, content address,
// compiled size, node loads, traced profile and product.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, s := range envShapes(t) {
		t.Run(s.name, func(t *testing.T) {
			p, r := s.p, s.opts.Ring
			env := encode(t, p)
			if !bytes.Equal(env, encode(t, p)) {
				t.Fatalf("encoding the same plan twice gave different bytes")
			}
			q, err := DecodePrepared(bytes.NewReader(env))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(encode(t, q), env) {
				t.Fatalf("decode → encode is not a fixed point")
			}
			if q.Classes != p.Classes || q.Band != p.Band || q.D != p.D || q.Algorithm != p.Algorithm {
				t.Fatalf("metadata changed over round trip: %+v vs %+v", q, p)
			}
			if q.CompiledBytes() != p.CompiledBytes() {
				t.Fatalf("compiled bytes %d, want %d", q.CompiledBytes(), p.CompiledBytes())
			}
			wsend, wrecv := p.NodeLoads()
			gsend, grecv := q.NodeLoads()
			if !reflect.DeepEqual(gsend, wsend) || !reflect.DeepEqual(grecv, wrecv) {
				t.Fatalf("restored node loads differ")
			}

			wantFP, err := Fingerprint(s.inst.Ahat, s.inst.Bhat, s.inst.Xhat, s.opts)
			if err != nil {
				t.Fatalf("fingerprint: %v", err)
			}
			for _, pp := range []*Prepared{p, q} {
				got, err := pp.Fingerprint()
				if err != nil {
					t.Fatalf("prepared fingerprint: %v", err)
				}
				if got != wantFP {
					t.Fatalf("fingerprint %s, want %s", got, wantFP)
				}
			}

			as := []*matrix.Sparse{matrix.Random(s.inst.Ahat, r, 1), matrix.Random(s.inst.Ahat, r, 3)}
			bs := []*matrix.Sparse{matrix.Random(s.inst.Bhat, r, 2), matrix.Random(s.inst.Bhat, r, 4)}
			wants, wrep, err := p.MultiplyBatch(as, bs, ExecOpts{Trace: true})
			if err != nil {
				t.Fatalf("original multiply: %v", err)
			}
			gots, grep, err := q.MultiplyBatch(as, bs, ExecOpts{Trace: true})
			if err != nil {
				t.Fatalf("restored multiply: %v", err)
			}
			for l := range wants {
				if !matrix.Equal(gots[l], wants[l]) {
					t.Fatalf("restored product differs in lane %d", l)
				}
			}
			if !reflect.DeepEqual(grep.Profile.Export(), wrep.Profile.Export()) {
				t.Fatalf("restored plan traces a different profile")
			}
			if grep.Band != p.Band {
				t.Fatalf("report band %v, want %v", grep.Band, p.Band)
			}
		})
	}
}

// TestEnvelopeRejectsFutureVersion stamps an intact envelope with other
// format versions — the next one, as a future build would write it, the
// previous one, as a store written before the upgrade holds it, and the
// retired gob generation's number — and checks the reader rejects each with
// the typed version error, cleanly, not as corruption: the checksum covers
// the body only and is still valid.
func TestEnvelopeRejectsFutureVersion(t *testing.T) {
	env := encode(t, envShapes(t)[1].p)
	for _, v := range []uint32{PreparedFormatVersion + 1, PreparedFormatVersion - 1, 1} {
		other := append([]byte(nil), env...)
		binary.LittleEndian.PutUint32(other[hdrVersion:], v)
		_, err := DecodePrepared(bytes.NewReader(other))
		if !errors.Is(err, ErrEnvelopeVersion) {
			t.Fatalf("envelope version %d: err=%v, want ErrEnvelopeVersion", v, err)
		}
		if errors.Is(err, ErrEnvelope) {
			t.Fatalf("version mismatch misreported as corruption: %v", err)
		}
	}
}

// TestEnvelopeRejectsCorruption checks damaged envelopes surface
// ErrEnvelope and never a usable plan.
func TestEnvelopeRejectsCorruption(t *testing.T) {
	shapes := envShapes(t)

	// Every single-bit flip of a whole envelope, for each plan shape: the
	// magic, the length and the checksum catch their own bits, the checksum
	// catches the body's, and a flipped version bit reads as another
	// generation. (At the gob generation 14% of such flips decoded cleanly
	// and some of those multiplied to a wrong product.)
	flip := func(t *testing.T, env []byte, stride int) {
		t.Helper()
		for bit := 0; bit < 8*len(env); bit += stride {
			env[bit/8] ^= 1 << (bit % 8)
			_, err := DecodePrepared(bytes.NewReader(env))
			env[bit/8] ^= 1 << (bit % 8)
			if !errors.Is(err, ErrEnvelope) && !errors.Is(err, ErrEnvelopeVersion) {
				t.Fatalf("bit %d of byte %d flipped: err=%v, want ErrEnvelope or ErrEnvelopeVersion", bit%8, bit/8, err)
			}
		}
	}
	for _, s := range shapes {
		t.Run("bitflip/"+s.name, func(t *testing.T) { flip(t, encode(t, s.p), 1) })
	}
	t.Run("bitflip/n256", func(t *testing.T) {
		inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 7)
		p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}})
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		flip(t, encode(t, p), 8*7+1) // bit 1 of every 7th byte, then drifting
	})

	// Truncation at every length — which covers every section boundary and
	// len-1 — both as it would happen on disk (the header's length no
	// longer matches) and resealed, so the body reader's own bounds checks
	// are what fire. Neither may allocate past a fixed multiple of the
	// input.
	for _, s := range shapes {
		t.Run("truncated/"+s.name, func(t *testing.T) {
			env := encode(t, s.p)
			for n := 0; n < len(env); n++ {
				cut := append([]byte(nil), env[:n]...)
				if _, err := DecodePrepared(bytes.NewReader(cut)); !errors.Is(err, ErrEnvelope) {
					t.Fatalf("truncation to %d: err=%v, want ErrEnvelope", n, err)
				}
				if n < hdrLen {
					continue
				}
				_, got, err := decodeAllocs(reseal(cut))
				if !errors.Is(err, ErrEnvelope) {
					t.Fatalf("resealed truncation to %d: err=%v, want ErrEnvelope", n, err)
				}
				if got > allocCap(cut) {
					t.Fatalf("resealed truncation to %d allocated %d bytes for a %d-byte input", n, got, len(cut))
				}
			}
		})
	}

	// A length prefix rewritten to exceed the bytes that remain, checksum
	// recomputed so the length check itself is what fires. The body opens
	// with the Algorithm string's length; beyond that known prefix, a huge
	// count is planted at every body offset in turn — wherever it lands on
	// a slab's length it must be refused before anything is allocated for
	// it, and wherever else it lands the decode must still stay inside the
	// allocation bound.
	t.Run("hostile-length", func(t *testing.T) {
		env := encode(t, shapes[2].p)
		for off := hdrLen; off+4 <= len(env); off++ {
			bad := append([]byte(nil), env...)
			binary.LittleEndian.PutUint32(bad[off:], 0xfffffff0)
			_, got, err := decodeAllocs(reseal(bad))
			if off == hdrLen && !errors.Is(err, ErrEnvelope) {
				t.Fatalf("over-long algorithm string: err=%v, want ErrEnvelope", err)
			}
			if err != nil && !errors.Is(err, ErrEnvelope) {
				t.Fatalf("count planted at %d: err=%v, want ErrEnvelope or a clean decode", off, err)
			}
			if got > allocCap(bad) {
				t.Fatalf("count planted at %d: decode allocated %d bytes for a %d-byte input", off, got, len(bad))
			}
		}
	})

	// Damage the checksum cannot see because the header was resealed over
	// it, or that sits in the header itself.
	env := encode(t, shapes[1].p)
	for _, tc := range []struct {
		name  string
		patch func(env []byte) []byte
	}{
		{"bad magic", func(env []byte) []byte { copy(env, "lbmmpost"); return env }},
		{"trailing byte", func(env []byte) []byte { return append(env, 0) }},
		{"trailing byte, resealed", func(env []byte) []byte { return reseal(append(env, 0)) }},
		{"unknown algorithm", func(env []byte) []byte { env[hdrLen+4] = 'x'; return reseal(env) }},
	} {
		bad := tc.patch(append([]byte(nil), env...))
		if _, err := DecodePrepared(bytes.NewReader(bad)); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("%s: err=%v, want ErrEnvelope", tc.name, err)
		}
	}
}

// hugeCleanupSlot returns p's envelope with the high byte of its last slot
// set: the slot of the job's last cleanup ref, which closes the body. The
// header is resealed so the body reader is what must refuse it.
func hugeCleanupSlot(t testing.TB, p *Prepared) []byte {
	t.Helper()
	env := encode(t, p)
	env[len(env)-1] = 0x7f
	return reseal(env)
}

// TestDecodeRejectsOversizedArena checks that a cleanup ref far past every
// other slot of its node is refused at decode rather than sizing an arena
// of two billion slots, for each plan shape whose job has a cleanup sweep
// (on envShapes' blocks, phase 1 of theorem42 leaves its job empty) and for
// the committed seed that carries one.
func TestDecodeRejectsOversizedArena(t *testing.T) {
	envs := map[string][]byte{"seed": readSeed(t, filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "cleanup-slot-high-byte-resealed"))}
	for _, s := range envShapes(t) {
		if s.name == "lemma31" || s.name == "trivial" {
			envs[s.name] = hugeCleanupSlot(t, s.p)
		}
	}
	for name, env := range envs {
		_, err := DecodePrepared(bytes.NewReader(env))
		if !errors.Is(err, ErrEnvelope) || !strings.Contains(err.Error(), "not gap-free") {
			t.Errorf("%s: err = %v, want ErrEnvelope refusing the arena", name, err)
		}
	}
}

// deadShape prepares the trivial plan of a uniformly sparse instance on
// which most cells lie on no triangle, so its decode derives dead counts.
func deadShape(t testing.TB) *Prepared {
	t.Helper()
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 16, 3, 7)
	p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}, Algorithm: "trivial"})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return p
}

// TestDecodeRejectsRoundOffsetPastStream replays the resealed one-byte
// change that once made the decoder index past a compiled plan's
// instruction stream: a theorem42 blocks envelope whose round index runs
// beyond it must come back as ErrEnvelope, not a panic.
func TestDecodeRejectsRoundOffsetPastStream(t *testing.T) {
	seed := readSeed(t, filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "round-offset-resealed"))
	_, err := DecodePrepared(bytes.NewReader(seed))
	if !errors.Is(err, ErrEnvelope) || !strings.Contains(err.Error(), "covers instructions") {
		t.Fatalf("err = %v, want ErrEnvelope from the round index bound", err)
	}
}

// TestEnvelopeDeadCellsRoundTrip checks that a plan with dead cells
// survives the envelope: the dead counts are derived again, and the
// restored plan gives the original's product and Stats, PeakStore
// included, which are the map oracle's totals; its loads are the oracle's
// too.
func TestEnvelopeDeadCellsRoundTrip(t *testing.T) {
	p := deadShape(t)
	q, err := DecodePrepared(bytes.NewReader(encode(t, p)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	inst := p.inner.Inst
	a, b := matrix.Random(inst.Ahat, ring.Counting{}, 1), matrix.Random(inst.Bhat, ring.Counting{}, 2)
	want, wrep, err := p.Multiply(a, b)
	if err != nil {
		t.Fatalf("original multiply: %v", err)
	}
	got, grep, err := q.Multiply(a, b)
	if err != nil {
		t.Fatalf("restored multiply: %v", err)
	}
	if !matrix.Equal(got, want) || !reflect.DeepEqual(grep.Stats, wrep.Stats) {
		t.Fatalf("restored plan differs: stats %+v, want %+v", grep.Stats, wrep.Stats)
	}
	_, mres, err := p.inner.MultiplyMap(a, b)
	if err != nil {
		t.Fatalf("map multiply: %v", err)
	}
	if err := oracleStatsErr(q, mres.Stats, grep.Stats); err != nil {
		t.Fatalf("restored plan: %v", err)
	}
	if q.CompiledBytes() != p.CompiledBytes() {
		t.Fatalf("compiled bytes %d, want %d", q.CompiledBytes(), p.CompiledBytes())
	}
}

// TestDecodedPlanOwnsItsState: an envelope's body is read into a pooled
// buffer that the next decode reuses, so a decoded plan must hold nothing
// of it. Decode P, then decode envelopes of other structures and shapes —
// and a damaged one — over the same buffer: P still multiplies to the
// reference product and re-encodes to its own bytes.
func TestDecodedPlanOwnsItsState(t *testing.T) {
	var others [][]byte
	for _, s := range envShapes(t) {
		others = append(others, encode(t, s.p))
	}
	for _, inst := range []*graph.Instance{workload.Mixed(12, 3, 4), workload.Instance(matrix.US, matrix.US, matrix.US, 16, 3, 5)} {
		q, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}})
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, encode(t, q))
	}
	damaged := append([]byte(nil), others[len(others)-1]...)
	damaged[len(damaged)-1] ^= 1
	for _, s := range envShapes(t) {
		env := encode(t, s.p)
		p, err := DecodePrepared(bytes.NewReader(env))
		if err != nil {
			t.Fatalf("%s: decode: %v", s.name, err)
		}
		for _, o := range others {
			if _, err := DecodePrepared(bytes.NewReader(o)); err != nil {
				t.Fatalf("%s: decode of another envelope: %v", s.name, err)
			}
		}
		if _, err := DecodePrepared(bytes.NewReader(damaged)); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("%s: damaged envelope: err=%v", s.name, err)
		}
		r := s.opts.Ring
		a, b := matrix.Random(s.inst.Ahat, r, 7), matrix.Random(s.inst.Bhat, r, 8)
		got, _, err := p.Multiply(a, b)
		if err != nil {
			t.Fatalf("%s: multiply: %v", s.name, err)
		}
		if !matrix.Equal(got, matrix.MulReference(a, b, s.inst.Xhat)) {
			t.Fatalf("%s: a decoded plan's product changed when its buffer was reused", s.name)
		}
		if !bytes.Equal(encode(t, p), env) {
			t.Fatalf("%s: a decoded plan re-encodes differently once its buffer was reused", s.name)
		}
	}
}

// naiveAsLemma31 returns the envelope of a compiled plan that runs the naive
// router's job but is named lemma31: a Lemma 3.1 plan whose job was swapped
// for algo.Planner's Baseline of the same structure. The envelope is sealed,
// so the body reader's shape rule is what must refuse it.
func naiveAsLemma31(t testing.TB) []byte {
	t.Helper()
	inst := workload.Blocks(8, 2)
	p, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: ring.Counting{}, Algorithm: "lemma31"})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	naive, err := algo.NewPlanner(ring.Counting{}, p.inner.Inst).Baseline(0)
	if err != nil {
		t.Fatalf("plan the naive router: %v", err)
	}
	naive.Name = "lemma31"
	if err := naive.Compile(); err != nil {
		t.Fatalf("compile the naive router: %v", err)
	}
	p.inner = naive
	return encode(t, p)
}

// TestDecodeRejectsNaiveJobUnderLemma31 checks that the decoder holds each
// name to the exact job shape it implies: a naive-router job under the name
// lemma31 is refused, and so is the committed seed that carries one.
func TestDecodeRejectsNaiveJobUnderLemma31(t *testing.T) {
	seed := readSeed(t, filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "naive-as-lemma31"))
	for _, env := range [][]byte{naiveAsLemma31(t), seed} {
		_, err := DecodePrepared(bytes.NewReader(env))
		if !errors.Is(err, ErrEnvelope) || !strings.Contains(err.Error(), `a "naive" job`) {
			t.Errorf("err = %v, want ErrEnvelope refusing the naive job", err)
		}
	}
}
