package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, the median and the third quartile
// by the exclusive method Python's statistics.quantiles(values, n=4) uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k float64) float64 {
		pos := k*float64(len(s)+1)/4 - 1
		lo := min(max(int(pos), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// collect groups every end-to-end value of the result files by
// "workload/metric".
func collect(paths []string) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, path := range paths {
		r, err := readResult(path)
		if err != nil {
			return nil, err
		}
		for _, w := range r.Workloads {
			for k, m := range w.EndToEnd {
				out[w.Name+"/"+k] = append(out[w.Name+"/"+k], m.Value)
			}
		}
	}
	return out, nil
}

// compare prints, per workload and end-to-end metric, the median and
// quartiles of two sets of result files, the relative difference of the
// medians and the metric's bound. The sets are runs of one commit, so they
// have to agree: a row whose medians differ by more than the bound in either
// direction is outside, and a row whose spread inside either set exceeds the
// bound is unresolved. It reports whether no row is outside.
func compare(out io.Writer, boundsPath string, first, second []string) (bool, error) {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := collect(first)
	if err != nil {
		return false, err
	}
	b, err := collect(second)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-36s %4s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload/metric", "n", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound", "verdict")
	ok := true
	for _, key := range sortedKeys(a) {
		if len(b[key]) == 0 {
			continue
		}
		name := key[strings.IndexByte(key, '/')+1:]
		bound := 0.0
		for _, m := range bf.EndToEnd {
			if m.Name == name {
				bound = m.Bound
			}
		}
		a1, am, a3 := quartiles(a[key])
		b1, bm, b3 := quartiles(b[key])
		spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
		diff := bm/am - 1
		verdict := "within"
		switch {
		case math.Abs(diff) > bound:
			verdict, ok = "OUTSIDE", false
		case spreadA > bound || spreadB > bound:
			verdict = "unresolved"
		}
		fmt.Fprintf(out, "%-36s %4d %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%% %5.0f%%  %s\n",
			key, min(len(a[key]), len(b[key])), am, 100*spreadA, bm, 100*spreadB, 100*diff, 100*bound, verdict)
	}
	return ok, nil
}
