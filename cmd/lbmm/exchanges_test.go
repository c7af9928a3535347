package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden lbmm exchanges tables")

// TestExchangesGolden pins lbmm exchanges byte for byte at n=64 and n=256,
// d=4: every planner's rounds, exchanges and depth floor per phase, and the
// plan auto keeps. A change to a planner or its lowering that moves one of
// them fails here; run with -update to accept the new tables on purpose.
func TestExchangesGolden(t *testing.T) {
	for _, n := range []int{64, 256} {
		var got bytes.Buffer
		if err := runExchanges(&got, n, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		path := filepath.Join("testdata", fmt.Sprintf("exchanges_n%d_d4.txt", n))
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("lbmm exchanges -n %d -d 4 differs from %s:\n got:\n%s\nwant:\n%s", n, path, got.Bytes(), want)
		}
	}
}
