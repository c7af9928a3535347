// Command bench is the repository's one benchmark: six workloads over the
// compiled engine, the HTTP edge, the streaming session and the TCP mesh,
// run in interleaved slices, every lane checked against an oracle, with a
// traced pass that attributes each request's time to the layers it crossed.
// README.md in this directory explains the metrics and why they are taken
// the way they are.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		workloads = flag.String("workload", "all", "comma-separated workloads to run, or all")
		seed      = flag.Int64("seed", 42, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 16, "timed seconds per workload, split over the rounds")
		trace     = flag.Int("trace", 0, "1: after the slices make the traced pass and report the per-layer metrics")
		outPath   = flag.String("o", "", "also write the lbmm.bench.v1 result document here")
		cmpFirst  = flag.String("compare", "", "comma-separated result files of the first set (comparison mode)")
		cmpSecond = flag.String("against", "", "comma-separated result files of the second set")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *cmpFirst != "" || *cmpSecond != "" {
		ok, err := compare(os.Stdout, "BENCHMARK.json", strings.Split(*cmpFirst, ","), strings.Split(*cmpSecond, ","))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := config{
		seed: *seed, rounds: 8, seconds: *seconds, trace: *trace == 1,
		calls: 200, probeSpread: 100 * time.Millisecond, outDir: "bench/out",
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	if *workloads == "all" {
		for _, sp := range specs {
			cfg.workloads = append(cfg.workloads, sp.name)
		}
	} else {
		cfg.workloads = strings.Split(*workloads, ",")
	}

	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *outPath != "" {
		if err := res.writeFile(*outPath); err != nil {
			fatal(err)
		}
	}
	last, err := res.lastLine(cfg.trace)
	if err != nil {
		fatal(err)
	}
	failed, violations := res.failed()
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bench: path assertion:", v)
	}
	fmt.Printf("%s\n", last)
	if failed > 0 || len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d lanes failed, %d path assertions violated\n", failed, len(violations))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
