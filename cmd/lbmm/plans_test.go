package main

import (
	"testing"

	"lbmm/internal/planstore"
)

// TestPrewarmMixed prewarms the mixed workload at the defaults (n=64, d=4,
// counting) under auto, Lemma 3.1 and Theorem 4.2, the last of which plans
// phase-1 batches of several clusters on the balanced layout, and reads
// every entry back from the store.
func TestPrewarmMixed(t *testing.T) {
	st, err := planstore.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	algs := []string{"auto", "lemma31", "theorem42"}
	for _, alg := range algs {
		if err := plansPrewarm(st, "mixed", 64, 4, "counting", alg, ""); err != nil {
			t.Fatalf("prewarm mixed -alg %s: %v", alg, err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(algs) {
		t.Fatalf("the store holds %d entries, want %d", len(entries), len(algs))
	}
	for _, e := range entries {
		if _, err := st.Get(e.Fingerprint); err != nil {
			t.Fatalf("entry %s: %v", e.Fingerprint, err)
		}
	}
}
