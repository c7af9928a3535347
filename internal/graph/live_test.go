package graph_test

import (
	"slices"
	"testing"
	"testing/quick"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/workload"
)

// mergeLive is the walk Live used to make, kept as the oracle of
// TestLiveMatchesMergeWalk: for every A cell (i, j), merge-intersect X̂ row
// i with B̂ row j and mark the cells of every match.
func mergeLive(inst *graph.Instance) (a, b, x []bool) {
	a, b, x = make([]bool, inst.Ahat.NNZ), make([]bool, inst.Bhat.NNZ), make([]bool, inst.Xhat.NNZ)
	starts := func(s *matrix.Support) []int {
		out := make([]int, s.N)
		p := 0
		for i := range s.N {
			row := s.Row(i)
			out[i] = p
			p += len(row)
		}
		return out
	}
	bStart, xStart := starts(inst.Bhat), starts(inst.Xhat)
	pa := 0
	for i := range inst.Ahat.N {
		arow := inst.Ahat.Row(i)
		xrow := inst.Xhat.Row(i)
		for _, j := range arow {
			brow := inst.Bhat.Row(int(j))
			ai, bi := 0, 0
			for ai < len(xrow) && bi < len(brow) {
				switch {
				case xrow[ai] < brow[bi]:
					ai++
				case xrow[ai] > brow[bi]:
					bi++
				default:
					a[pa], b[bStart[j]+bi], x[xStart[i]+ai] = true, true, true
					ai++
					bi++
				}
			}
			pa++
		}
	}
	return a, b, x
}

// mergeTriangles is the walk Triangles used to make, kept as the oracle of
// TestLiveMatchesMergeWalk: for every A cell (i, j), merge-intersect X̂ row
// i with B̂ row j and list every match.
func mergeTriangles(inst *graph.Instance) []graph.Triangle {
	var out []graph.Triangle
	for i := range inst.N {
		xrow := inst.Xhat.Row(i)
		for _, j := range inst.Ahat.Row(i) {
			brow := inst.Bhat.Row(int(j))
			ai, bi := 0, 0
			for ai < len(xrow) && bi < len(brow) {
				switch {
				case xrow[ai] < brow[bi]:
					ai++
				case xrow[ai] > brow[bi]:
					bi++
				default:
					out = append(out, graph.Triangle{I: int32(i), J: j, K: xrow[ai]})
					ai++
					bi++
				}
			}
		}
	}
	return out
}

// TestLiveMatchesMergeWalk holds the stamped walk to the merge walk on
// random members of the workload families: uniformly sparse, mixed,
// power-law, blocks and the hot pair, at sizes and degrees testing/quick
// draws. Live must mark the same cells, and Triangles and CountTriangles
// must find the same triangles in the same order.
func TestLiveMatchesMergeWalk(t *testing.T) {
	families := []func(n, d int, seed int64) *graph.Instance{
		func(n, d int, seed int64) *graph.Instance {
			return workload.Instance(matrix.US, matrix.US, matrix.US, n, d, seed)
		},
		workload.Mixed,
		workload.PowerLaw,
		func(n, d int, _ int64) *graph.Instance { return workload.Blocks(n, d) },
		func(n, _ int, _ int64) *graph.Instance { return workload.HotPair(n) },
	}
	check := func(family, nSel, dSel uint8, seed int64) bool {
		d := 1 + int(dSel)%8
		n := d * (1 + int(nSel)%12)
		inst := families[int(family)%len(families)](n, d, seed)
		a, b, x := inst.Live()
		wa, wb, wx := mergeLive(inst)
		if !slices.Equal(a, wa) || !slices.Equal(b, wb) || !slices.Equal(x, wx) {
			t.Logf("family %d, n=%d, d=%d, seed %d: Live differs from the merge walk", int(family)%len(families), n, d, seed)
			return false
		}
		tris, want := inst.Triangles(), mergeTriangles(inst)
		if !slices.Equal(tris, want) || inst.CountTriangles() != len(want) {
			t.Logf("family %d, n=%d, d=%d, seed %d: %d triangles (%d counted), the merge walk finds %d",
				int(family)%len(families), n, d, seed, len(tris), inst.CountTriangles(), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLive times Live on the benchmark's served structure, US n=256,
// d=4.
func BenchmarkLive(b *testing.B) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst.Live()
	}
}

// BenchmarkTriangles times Triangles on the same structure: the stamped
// walk a Prepare lists its triangles with.
func BenchmarkTriangles(b *testing.B) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Triangles()
	}
}
