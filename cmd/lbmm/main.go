// Command lbmm regenerates every table and figure of the paper from live
// low-bandwidth-model simulations, and offers a demo multiplication.
//
// Usage:
//
//	lbmm table1 [-full] [-profile]  measured Table 1 (complexity ladder)
//	lbmm table2 [-full]     measured Table 2 (classification)
//	lbmm table3             Table 3 (semiring parameter schedule)
//	lbmm table4             Table 4 (field parameter schedule)
//	lbmm figure1 [-full]    §1.2 exponent-progress figure
//	lbmm lower [-full]      §6 lower-bound experiments
//	lbmm ablation [-full]   Lemma 3.1 vs naive-routing ablation
//	lbmm support [-full]    supported vs unsupported model (§1.6 baseline)
//	lbmm json [-full]       every experiment's data as JSON
//	lbmm trace [-n N] [-d D] [-alg NAME] [-workload NAME] [-format json|csv|text] [-o FILE]
//	                        structured trace export (schema lbmm.trace.v1)
//	lbmm exchanges [-n N] [-d D]
//	                        model rounds vs. physical exchanges per phase,
//	                        for every workload under lemma31 and theorem42
//	                        (EXPERIMENTS.md; docs/DIST.md)
//	lbmm demo [-n N] [-d D]
//	                        one multiplication with a full report + timeline
//	lbmm gen  [-n N] [-d D] -o PREFIX   write a generated instance to files
//	lbmm solve -a A.mtx -b B.mtx -x XHAT.mtx [-o OUT.mtx]   solve from files
//	lbmm serve [-addr :8080] [-cache N] [-cache-mb MB] [-workers N] [-queue N] [-deadline D] [-batch K] [-batch-delay D]
//	           [-batch-adaptive] [-stream [-stream-inflight N]] [-store-dir DIR] [-store-mb MB]
//	           [-ring [-join HOST:PORT] [-node-id ID] [-advertise HOST:PORT] [-vnodes V] [-auth-token T]]
//	                        HTTP/JSON multiply server with a prepared-plan
//	                        cache, admission control and dynamic batching
//	                        (docs/SERVICE.md); -batch-adaptive sizes the batch
//	                        window per plan fingerprint by arrival rate and
//	                        -stream mounts the lbmm.stream.v1 session endpoint
//	                        at POST /stream/v1; -store-dir adds a persistent
//	                        plan-store tier for warm restarts (docs/PLANSTORE.md);
//	                        -ring makes the process one shard of a multi-node
//	                        tier routed by plan fingerprint (docs/SHARDING.md),
//	                        -auth-token guards its membership endpoints
//	lbmm stream [-addr URL] [-lanes K] [-workload W] [-n N] [-d D] [-ring R] [-seed S] [-o FILE]
//	                        streaming load client: pipeline K multiplies over
//	                        one lbmm.stream.v1 session, verify every result
//	                        against the local sequential reference, and emit
//	                        a JSON report (schema lbmm.stream_report.v1)
//	lbmm fingerprint [-workload W -n N -d D | -ahat F -bhat F -xhat F] [-ring R] [-alg A]
//	                 [-shards id1,id2,…] [-via HOST:PORT]
//	                        print a structure's plan fingerprint (and owning
//	                        shard) without compiling — the routing debug tool
//	lbmm plans <list|inspect|prewarm|gc|verify> -store-dir DIR [flags]
//	                        inspect and maintain a plan store directory
//	                        (docs/PLANSTORE.md)
//	lbmm worker [-addr :7070] [-q] [-peer-timeout D] [-read-timeout D] [-park-ttl D] [-plan-cache N] [-auth-token T]
//	                        distributed-multiply worker process: serves jobs
//	                        and forms per-job TCP meshes (docs/DIST.md)
//	lbmm run -workers A1,A2,… [-workload W] [-n N] [-d D] [-alg A] [-ring R] [-seed S] [-partition modulo|balanced] [-k K] [-o FILE] [-no-verify] [-auth-token T]
//	                        coordinate one multiplication across worker
//	                        processes and verify the merged product against
//	                        the in-process engine (docs/DIST.md); -k batches
//	                        K value-set lanes through one shared mesh walk
//	lbmm chaos [-cases N] [-seed S] [-verbose]
//	                        chaos differential harness: randomized fault
//	                        plans through both engines and all transport
//	                        backends (docs/CHAOS.md, docs/DIST.md)
//	lbmm all [-full]        every table/figure in sequence
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lbmm/internal/algo"
	"lbmm/internal/core"
	"lbmm/internal/exper"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/params"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "plans" {
		// plans has sub-subcommands with their own flag sets; dispatch
		// before the generic flag parse below.
		if err := runPlans(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbmm:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "fingerprint" {
		// fingerprint reuses flag names (-ring for the semiring) that mean
		// different things in the generic set; it owns its flags.
		if err := runFingerprint(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbmm:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "serve" {
		// serve owns its flags too: its -ring is the shard-mode switch, not
		// a semiring name.
		if err := serveCommand(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbmm:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "worker" || cmd == "run" {
		// The distributed commands own their flags: run's -workers is an
		// address list (serve's is a pool size) and its -ring a semiring.
		var err error
		if cmd == "worker" {
			err = runWorker(os.Args[2:])
		} else {
			err = runDistRun(os.Args[2:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbmm:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "stream" {
		// The streaming client owns its flags (-lanes, and its -ring is a
		// semiring name).
		if err := runStreamClient(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbmm:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	full := fs.Bool("full", false, "run the larger (slower) sweep sizes")
	n := fs.Int("n", 64, "demo/gen: matrix dimension / computer count")
	d := fs.Int("d", 4, "demo/gen: sparsity parameter")
	aPath := fs.String("a", "", "solve: path to matrix A")
	bPath := fs.String("b", "", "solve: path to matrix B")
	xPath := fs.String("x", "", "solve: path to output support X̂")
	outPath := fs.String("o", "", "solve: result path / gen: file prefix")
	ringName := fs.String("ring", "", "solve: override the ring (boolean|counting|minplus|maxplus|gfp|real)")
	algName := fs.String("alg", "auto", "trace: algorithm (auto|theorem42|lemma31|trivial|baseline)")
	wlName := fs.String("workload", "blocks", "trace: workload (blocks|mixed|us|hotpair|powerlaw)")
	format := fs.String("format", "json", "trace: output format (json|csv|text)")
	profile := fs.Bool("profile", false, "table1: record per-point phase breakdowns")
	cases := fs.Int("cases", 200, "chaos: randomized differential cases")
	seed := fs.Int64("seed", 1, "chaos: harness seed (equal seeds replay equal runs)")
	verbose := fs.Bool("verbose", false, "chaos: log every detected fault")
	_ = fs.Parse(os.Args[2:])

	scale := exper.Quick
	if *full {
		scale = exper.Full
	}

	var err error
	switch cmd {
	case "table1":
		err = runTable1(scale, *profile)
	case "table2":
		err = runTable2(scale)
	case "table3":
		fmt.Println("Table 3 — parameters for Lemma 4.13 (semirings, λ = 4/3)")
		fmt.Print(params.Format(params.TableSemiring()))
	case "table4":
		fmt.Println("Table 4 — parameters for Lemma 4.13 (fields, λ = 1.156671)")
		fmt.Print(params.Format(params.TableField()))
	case "figure1":
		err = runFigure1(scale)
	case "lower":
		err = runLower(scale)
	case "ablation":
		err = runAblation(scale)
	case "support":
		err = runSupport(scale)
	case "trace":
		err = runTrace(*n, *d, *algName, *wlName, *format, *outPath)
	case "exchanges":
		err = runExchanges(*n, *d)
	case "json":
		var data []byte
		if data, err = exper.JSON(scale); err == nil {
			fmt.Println(string(data))
		}
	case "demo":
		err = runDemo(*n, *d)
	case "gen":
		err = runGen(*n, *d, *outPath)
	case "solve":
		err = runSolve(*aPath, *bPath, *xPath, *outPath, *ringName)
	case "chaos":
		err = runChaos(*cases, *seed, *verbose)
	case "all":
		for _, f := range []func() error{
			func() error { return runTable1(scale, *profile) },
			func() error { return runTable2(scale) },
			func() error { fmt.Print(params.Format(params.TableSemiring())); return nil },
			func() error { fmt.Print(params.Format(params.TableField())); return nil },
			func() error { return runFigure1(scale) },
			func() error { return runLower(scale) },
			func() error { return runAblation(scale) },
			func() error { return runSupport(scale) },
		} {
			if err = f(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lbmm <table1|table2|table3|table4|figure1|lower|ablation|support|json|trace|exchanges|demo|gen|solve|serve|stream|worker|run|fingerprint|plans|chaos|all> [flags]`)
}

func runTable1(scale exper.Scale, profile bool) error {
	var opts []exper.Opt
	if profile {
		opts = append(opts, exper.WithProfiling())
	}
	rows, err := exper.Table1(scale, opts...)
	if err != nil {
		return err
	}
	fmt.Print(exper.FormatTable1(rows, ""))
	return nil
}

func runTable2(scale exper.Scale) error {
	rows, err := exper.Table2(scale)
	if err != nil {
		return err
	}
	fmt.Print(exper.FormatTable2(rows))
	return nil
}

func runFigure1(scale exper.Scale) error {
	rows, err := exper.Table1(scale)
	if err != nil {
		return err
	}
	fmt.Print(exper.Figure1(rows))
	return nil
}

func runLower(scale exper.Scale) error {
	rows, err := exper.LowerBounds(scale)
	if err != nil {
		return err
	}
	if err := exper.CheckLowerRows(rows); err != nil {
		return err
	}
	fmt.Print(exper.FormatLowerBounds(rows))
	return nil
}

func runAblation(scale exper.Scale) error {
	rows, err := exper.AblationLemma31(scale)
	if err != nil {
		return err
	}
	fmt.Print(exper.FormatAblation(rows))
	vrows, err := exper.AblationStrassenVariant(scale)
	if err != nil {
		return err
	}
	fmt.Print(exper.FormatVariantAblation(vrows))
	return nil
}

func runSupport(scale exper.Scale) error {
	rows, err := exper.SupportCost(scale)
	if err != nil {
		return err
	}
	fmt.Print(exper.FormatSupportCost(rows))
	return nil
}

// workloadInstance builds the named generator's instance — the shared
// workload vocabulary of `lbmm trace` and `lbmm plans prewarm`.
func workloadInstance(wlName string, n, d int) (*graph.Instance, error) {
	switch wlName {
	case "blocks":
		return workload.Blocks(n, d), nil
	case "mixed":
		return workload.Mixed(n, d, 42), nil
	case "us":
		return workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 42), nil
	case "hotpair":
		return workload.HotPair(n), nil
	case "powerlaw":
		return workload.PowerLaw(n, d, 42), nil
	}
	return nil, fmt.Errorf("unknown workload %q", wlName)
}

// runExchanges prints the rounds-versus-exchanges table of EXPERIMENTS.md:
// for each workload and algorithm, per phase, the network rounds the model
// charges and the exchanges a transport blocks on (core.Prepared.Exchanges),
// with the dependency-depth floor. Everything is read off the compiled plans;
// nothing is executed.
func runExchanges(n, d int) error {
	fmt.Printf("model rounds vs. physical exchanges, n=%d d=%d (rounds→exchanges per phase; phases without messages omitted)\n\n", n, d)
	fmt.Println("| workload | algorithm | rounds | exchanges | depth floor | per phase |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, wl := range []string{"us", "blocks", "powerlaw", "mixed"} {
		inst, err := workloadInstance(wl, n, d)
		if err != nil {
			return err
		}
		for _, alg := range []string{"lemma31", "theorem42"} {
			prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: ring.Counting{}, Algorithm: alg})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", wl, alg, err)
			}
			rep := prep.Exchanges()
			var phases []string
			for _, ph := range rep.Phases {
				if ph.Rounds > 0 {
					phases = append(phases, fmt.Sprintf("%s %d→%d", ph.Phase, ph.Rounds, ph.Exchanges))
				}
			}
			fmt.Printf("| %s | %s | %d | %d | %d | %s |\n", wl, alg, rep.Rounds, rep.Exchanges, rep.Depth, strings.Join(phases, ", "))
		}
	}
	return nil
}

func runTrace(n, d int, algName, wlName, format, outPath string) error {
	inst, err := workloadInstance(wlName, n, d)
	if err != nil {
		return err
	}
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	var alg algo.Algorithm
	switch algName {
	case "auto", "theorem42":
		alg = algo.Theorem42(algo.Theorem42Opts{})
	case "lemma31":
		alg = algo.LemmaOnly
	case "trivial":
		alg = algo.TrivialSparse
	case "baseline":
		alg = algo.BaselineNaiveVirtual(0)
	default:
		return fmt.Errorf("unknown algorithm %q", algName)
	}
	res, got, err := algo.Solve(r, inst, a, b, alg, lbm.WithTrace())
	if err != nil {
		return err
	}
	if err := algo.Verify(got, a, b, inst.Xhat); err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if outPath != "" {
		fh, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer fh.Close()
		w = fh
	}
	switch format {
	case "json", "csv":
		e := res.Profile.Export()
		e.Meta = map[string]string{
			"algorithm": res.Name,
			"workload":  wlName,
			"instance":  workload.Describe(inst),
		}
		if format == "json" {
			return e.WriteJSON(w)
		}
		return e.WriteCSV(w)
	case "text":
		fmt.Fprintf(w, "%s on %s\n", res.Name, workload.Describe(inst))
		fmt.Fprintf(w, "total %d rounds, %d messages\n\n", res.Rounds, res.Stats.Messages)
		fmt.Fprint(w, res.Profile.Summary())
		fmt.Fprintf(w, "\nround timeline:\n%s", res.Timeline)
		return nil
	default:
		return fmt.Errorf("unknown format %q (want json, csv or text)", format)
	}
}

func runDemo(n, d int) error {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 42)
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	fmt.Printf("demo: %s\n", workload.Describe(inst))
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r, D: d})
	if err != nil {
		return err
	}
	x, rep, err := prep.MultiplyOpts(a, b, core.ExecOpts{Trace: true})
	if err != nil {
		return err
	}
	if err := algo.Verify(x, a, b, inst.Xhat); err != nil {
		return err
	}
	fmt.Printf("algorithm      %s (engine %s)\n", rep.Name, rep.Engine)
	fmt.Printf("classes        [%v:%v:%v] → band %v\n", rep.Classes[0], rep.Classes[1], rep.Classes[2], rep.Band)
	up, lo := rep.Band.Bounds()
	fmt.Printf("bounds         upper %s, lower %s\n", up, lo)
	fmt.Printf("triangles      %d (residual after phase 1: %d)\n", rep.Triangles, rep.Residual)
	fmt.Printf("rounds         %d (phase1 %d, phase2 %d)\n", rep.Rounds, rep.Phase1Rounds, rep.Phase2Rounds)
	fmt.Printf("messages       %d, peak store %d values/computer\n", rep.Stats.Messages, rep.Stats.PeakStore)
	fmt.Printf("max send/recv  %d / %d per computer\n", rep.Stats.MaxSendLoad(), rep.Stats.MaxRecvLoad())
	fmt.Printf("output nnz     %d (verified against the sequential reference)\n", x.NNZ())
	fmt.Printf("\nround timeline:\n%s", rep.Timeline)
	return nil
}

func runGen(n, d int, prefix string) error {
	if prefix == "" {
		prefix = "instance"
	}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, n, d, 42)
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	write := func(name string, f func(*os.File) error) error {
		fh, err := os.Create(name)
		if err != nil {
			return err
		}
		defer fh.Close()
		return f(fh)
	}
	if err := write(prefix+"_a.mtx", func(f *os.File) error { return matrix.WriteSparse(f, a) }); err != nil {
		return err
	}
	if err := write(prefix+"_b.mtx", func(f *os.File) error { return matrix.WriteSparse(f, b) }); err != nil {
		return err
	}
	if err := write(prefix+"_xhat.mtx", func(f *os.File) error { return matrix.WriteSupport(f, inst.Xhat) }); err != nil {
		return err
	}
	fmt.Printf("wrote %s_{a,b,xhat}.mtx  (%s)\n", prefix, workload.Describe(inst))
	return nil
}

func runSolve(aPath, bPath, xPath, outPath, ringName string) error {
	if aPath == "" || bPath == "" || xPath == "" {
		return fmt.Errorf("solve needs -a, -b and -x")
	}
	var override ring.Semiring
	if ringName != "" {
		r, err := matrix.RingByName(ringName)
		if err != nil {
			return err
		}
		override = r
	}
	read := func(name string) (*os.File, error) { return os.Open(name) }
	af, err := read(aPath)
	if err != nil {
		return err
	}
	defer af.Close()
	a, err := matrix.ReadSparse(af, override)
	if err != nil {
		return fmt.Errorf("%s: %w", aPath, err)
	}
	bf, err := read(bPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	b, err := matrix.ReadSparse(bf, a.R)
	if err != nil {
		return fmt.Errorf("%s: %w", bPath, err)
	}
	xf, err := read(xPath)
	if err != nil {
		return err
	}
	defer xf.Close()
	xhat, err := matrix.ReadSupport(xf)
	if err != nil {
		return fmt.Errorf("%s: %w", xPath, err)
	}

	x, rep, err := core.Multiply(a, b, xhat, core.Options{Ring: a.R})
	if err != nil {
		return err
	}
	fmt.Printf("solved n=%d over %s: [%v:%v:%v] band %v, algorithm %s, %d rounds, %d messages\n",
		a.N, a.R.Name(), rep.Classes[0], rep.Classes[1], rep.Classes[2],
		rep.Band, rep.Name, rep.Rounds, rep.Stats.Messages)
	if outPath != "" {
		fh, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer fh.Close()
		if err := matrix.WriteSparse(fh, x); err != nil {
			return err
		}
		fmt.Printf("result written to %s (%d entries)\n", outPath, x.NNZ())
	}
	return nil
}
