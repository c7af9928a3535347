package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden envelope digests")

// envelopeGoldenPath holds one line per pinned plan: its name and the
// SHA-256 of its envelope.
var envelopeGoldenPath = filepath.Join("testdata", "envelopes.sha256")

// TestPrepareEnvelopeGolden pins the envelope (Encode) of every plan a
// Prepare writes on the skewed and uniform bench shapes, byte for byte: US,
// Mixed, PowerLaw and HotPair at n=64 and n=256, d=4, under auto, trivial
// and lemma31, and Theorem 4.2 on two block structures, each over the
// counting ring and GF(1009). A change to a planner, its lowering or the
// slot numbering that moves one byte of a program fails here; run with
// -update to accept the new digests on purpose.
func TestPrepareEnvelopeGolden(t *testing.T) {
	type structure struct {
		name string
		inst *graph.Instance
		algs []string
	}
	var structs []structure
	sparse := []string{"auto", "trivial", "lemma31"}
	for _, n := range []int{64, 256} {
		structs = append(structs,
			structure{fmt.Sprintf("us%d", n), workload.Instance(matrix.US, matrix.US, matrix.US, n, 4, 1), sparse},
			structure{fmt.Sprintf("mixed%d", n), workload.Mixed(n, 4, 1), sparse},
			structure{fmt.Sprintf("powerlaw%d", n), workload.PowerLaw(n, 4, 1), sparse},
			structure{fmt.Sprintf("hotpair%d", n), workload.HotPair(n), sparse})
	}
	structs = append(structs,
		structure{"blocks32x4", workload.Blocks(32, 4), []string{"theorem42"}},
		structure{"blocks64x8", workload.Blocks(64, 8), []string{"theorem42"}})
	var got strings.Builder
	for _, s := range structs {
		for _, alg := range s.algs {
			for _, r := range []ring.Semiring{ring.Counting{}, ring.NewGFp(1009)} {
				p, err := Prepare(s.inst.Ahat, s.inst.Bhat, s.inst.Xhat, Options{Ring: r, D: s.inst.D, Algorithm: alg})
				if err != nil {
					t.Fatalf("%s %s over %s: %v", alg, s.name, r.Name(), err)
				}
				var env bytes.Buffer
				if err := p.Encode(&env); err != nil {
					t.Fatalf("%s %s over %s: %v", alg, s.name, r.Name(), err)
				}
				fmt.Fprintf(&got, "%s %s %s %x\n", s.name, alg, r.Name(), sha256.Sum256(env.Bytes()))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(envelopeGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(envelopeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("envelopes differ from %s:\n got:\n%s\nwant:\n%s", envelopeGoldenPath, got.String(), want)
	}
}
