package triangle

import (
	"reflect"
	"testing"

	"lbmm/internal/core"
)

func TestNewGraphDedupAndLoops(t *testing.T) {
	g := NewGraph(4, [][2]int{{0, 1}, {1, 0}, {2, 2}, {1, 2}, {0, 1}, {-1, 3}, {3, 9}})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if g.MaxDegree() != 2 {
		t.Errorf("max degree = %d", g.MaxDegree())
	}
}

func TestCountLocalKnownGraphs(t *testing.T) {
	// K4 has 4 triangles.
	k4 := NewGraph(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got := CountLocal(k4); got != 4 {
		t.Errorf("K4 triangles = %d", got)
	}
	// C5 has none.
	c5 := NewGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if got := CountLocal(c5); got != 0 {
		t.Errorf("C5 triangles = %d", got)
	}
	// Two disjoint triangles.
	two := NewGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if got := CountLocal(two); got != 2 {
		t.Errorf("2K3 triangles = %d", got)
	}
}

func TestDistributedCountMatchesLocal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := RandomBoundedDegree(40, 5, seed)
		res, err := Count(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := CountLocal(g); res.Triangles != want {
			t.Fatalf("seed %d: distributed count %d != local %d", seed, res.Triangles, want)
		}
		if res.Report == nil || res.Report.Rounds < 0 {
			t.Error("missing report")
		}
	}
}

func TestDetect(t *testing.T) {
	k3 := NewGraph(8, [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}})
	found, rep, err := Detect(k3, core.Options{})
	if err != nil || !found {
		t.Fatalf("Detect(K3+) = %v, %v", found, err)
	}
	if rep == nil {
		t.Error("missing report")
	}
	c4 := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	found, _, err = Detect(c4, core.Options{})
	if err != nil || found {
		t.Fatalf("Detect(C4) = %v, %v", found, err)
	}
}

func TestCountRejectsWrongRing(t *testing.T) {
	g := RandomBoundedDegree(10, 3, 1)
	if _, err := Count(g, core.Options{Ring: nil}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBoundedDegreeRespectsBound(t *testing.T) {
	for _, d := range []int{1, 3, 6} {
		g := RandomBoundedDegree(50, d, 7)
		if g.MaxDegree() > d {
			t.Errorf("degree %d exceeds bound %d", g.MaxDegree(), d)
		}
	}
}

func TestPageRankMatchesLocal(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := RandomBoundedDegree(40, 4, seed)
		dist, total, perIter, err := PageRank(g, 0.85, 8)
		if err != nil {
			t.Fatal(err)
		}
		local := PageRankLocal(g, 0.85, 8)
		if e := MaxRankError(dist, local); e > 1e-9 {
			t.Fatalf("seed %d: rank error %v", seed, e)
		}
		if total != 8*perIter {
			t.Errorf("rounds not identical per iteration: %d vs 8×%d", total, perIter)
		}
		// Mass conservation up to dangling leakage: sum ≤ 1 + ε.
		sum := 0.0
		for _, v := range dist {
			sum += v
		}
		if sum > 1+1e-9 {
			t.Errorf("rank mass %v > 1", sum)
		}
	}
	if _, _, _, err := PageRank(RandomBoundedDegree(10, 2, 1), 0.85, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestGeneratedGraphFamilies(t *testing.T) {
	// Preferential attachment: heavy-tailed — max degree well above the
	// mean; distributed triangle count still exact.
	ba := PreferentialAttachment(120, 3, 5)
	if ba.NumEdges() == 0 {
		t.Fatal("BA graph empty")
	}
	mean := 2 * ba.NumEdges() / ba.N
	if ba.MaxDegree() < 2*mean {
		t.Errorf("BA max degree %d not heavy-tailed (mean %d)", ba.MaxDegree(), mean)
	}
	res, err := Count(ba, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != CountLocal(ba) {
		t.Fatalf("BA count %d != %d", res.Triangles, CountLocal(ba))
	}

	// Small world: bounded degree, high clustering at beta=0.
	sw := SmallWorld(60, 4, 0, 7)
	if sw.MaxDegree() > 6 {
		t.Errorf("SW degree %d too high", sw.MaxDegree())
	}
	if CountLocal(sw) == 0 {
		t.Error("ring lattice with k=4 must have triangles")
	}
	res, err = Count(sw, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != CountLocal(sw) {
		t.Fatalf("SW count %d != %d", res.Triangles, CountLocal(sw))
	}
	// Rewired variant still counts correctly.
	swr := SmallWorld(60, 4, 0.3, 7)
	res, err = Count(swr, core.Options{})
	if err != nil || res.Triangles != CountLocal(swr) {
		t.Fatalf("rewired SW mismatch: %v", err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PreferentialAttachment(80, 3, 9)
	b := PreferentialAttachment(80, 3, 9)
	if a.NumEdges() != b.NumEdges() || CountLocal(a) != CountLocal(b) {
		t.Error("PreferentialAttachment not deterministic")
	}
	if !reflect.DeepEqual(a.adj, b.adj) {
		t.Fatal("edge lists differ")
	}
	s1 := SmallWorld(50, 4, 0.2, 3)
	s2 := SmallWorld(50, 4, 0.2, 3)
	if s1.NumEdges() != s2.NumEdges() || CountLocal(s1) != CountLocal(s2) {
		t.Error("SmallWorld not deterministic")
	}
}
