package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/planstore"
)

// runPlans drives the plan-store maintenance subcommands (docs/PLANSTORE.md):
//
//	lbmm plans list     -store-dir DIR
//	lbmm plans inspect  -store-dir DIR -fp FINGERPRINT
//	lbmm plans prewarm  -store-dir DIR [-workload W] [-n N] [-d D] [-ring R] [-alg A] [-o REQ.json]
//	lbmm plans gc       -store-dir DIR -store-mb MB
//	lbmm plans verify   -store-dir DIR [-fix]
//
// Every subcommand operates directly on the store directory; it is safe to
// run them against a directory a live server is using, since the store's
// writes are atomic and readers only ever see complete entries.
func runPlans(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("plans needs a subcommand: list, inspect, prewarm, gc or verify")
	}
	sub := args[0]
	fs := flag.NewFlagSet("plans "+sub, flag.ExitOnError)
	dir := fs.String("store-dir", "", "plan store directory (required)")
	mb := fs.Int("store-mb", 0, "size budget in MiB enforced by gc (0 = unbounded)")
	fp := fs.String("fp", "", "inspect: fingerprint of the entry to inspect")
	fix := fs.Bool("fix", false, "verify: quarantine entries that fail validation")
	n := fs.Int("n", 64, "prewarm: matrix dimension")
	d := fs.Int("d", 4, "prewarm: sparsity parameter")
	wlName := fs.String("workload", "blocks", "prewarm: workload (blocks|mixed|us|hotpair|powerlaw)")
	ringName := fs.String("ring", "counting", "prewarm: ring (boolean|counting|minplus|maxplus|gfp|real)")
	algName := fs.String("alg", "auto", "prewarm: algorithm (auto|trivial|lemma31|theorem42)")
	outPath := fs.String("o", "", "prewarm: also write a matching /v1/multiply request as JSON")
	_ = fs.Parse(args[1:])
	if fs.NArg() > 0 {
		return fmt.Errorf("plans %s: unexpected argument %q", sub, fs.Arg(0))
	}
	if *dir == "" {
		return fmt.Errorf("plans %s: -store-dir is required", sub)
	}
	st, err := planstore.Open(*dir, int64(*mb)<<20, nil)
	if err != nil {
		return err
	}

	switch sub {
	case "list":
		return plansList(st)
	case "inspect":
		return plansInspect(st, *fp)
	case "prewarm":
		return plansPrewarm(st, *wlName, *n, *d, *ringName, *algName, *outPath)
	case "gc":
		return plansGC(st, *mb)
	case "verify":
		return plansVerify(st, *fix)
	}
	return fmt.Errorf("plans: unknown subcommand %q (want list, inspect, prewarm, gc or verify)", sub)
}

func plansList(st *planstore.Store) error {
	entries, err := st.List()
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		fmt.Printf("%s  %8d bytes  %s\n", e.Fingerprint, e.Bytes, e.ModTime.UTC().Format("2006-01-02T15:04:05Z"))
		total += e.Bytes
	}
	fmt.Printf("%d entries, %d bytes\n", len(entries), total)
	q, err := st.Quarantined()
	if err != nil {
		return err
	}
	if len(q) > 0 {
		fmt.Printf("%d quarantined:\n", len(q))
		for _, name := range q {
			fmt.Printf("  %s\n", name)
		}
	}
	return nil
}

func plansInspect(st *planstore.Store, fp string) error {
	if fp == "" {
		return fmt.Errorf("plans inspect: -fp is required")
	}
	p, err := st.Get(fp)
	if err != nil {
		return err
	}
	up, lo := p.Band.Bounds()
	fmt.Printf("fingerprint    %s\n", fp)
	fmt.Printf("algorithm      %s\n", p.Algorithm)
	fmt.Printf("classes        [%v:%v:%v] → band %v\n", p.Classes[0], p.Classes[1], p.Classes[2], p.Band)
	fmt.Printf("bounds         upper %s, lower %s\n", up, lo)
	fmt.Printf("d              %d\n", p.D)
	fmt.Printf("compiled size  %d bytes\n", p.CompiledBytes())
	return nil
}

func plansPrewarm(st *planstore.Store, wlName string, n, d int, ringName, algName, outPath string) error {
	inst, err := workloadInstance(wlName, n, d)
	if err != nil {
		return err
	}
	r, err := matrix.RingByName(ringName)
	if err != nil {
		return err
	}
	opts := core.Options{Ring: r, D: d, Algorithm: algName}
	fp, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		return err
	}
	p, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		return err
	}
	if err := st.Put(fp, p); err != nil {
		return err
	}
	fmt.Printf("prewarmed %s (%s n=%d d=%d over %s, alg %s, %d compiled bytes)\n",
		fp, wlName, n, d, r.Name(), p.Algorithm, p.CompiledBytes())

	if outPath == "" {
		return nil
	}
	// Emit a /v1/multiply request whose structure fingerprints to the entry
	// just written, so `curl -d @REQ.json` against a server sharing this
	// store directory is served from disk without compiling.
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	cells := func(m *matrix.Sparse) [][3]float64 {
		out := make([][3]float64, 0, m.NNZ())
		for i, row := range m.Rows {
			for _, c := range row {
				out = append(out, [3]float64{float64(i), float64(c.Col), c.Val})
			}
		}
		return out
	}
	xhat := make([][2]int, 0, inst.Xhat.NNZ)
	for i := range inst.Xhat.N {
		for _, j := range inst.Xhat.Row(i) {
			xhat = append(xhat, [2]int{i, int(j)})
		}
	}
	req := struct {
		N         int          `json:"n"`
		Ring      string       `json:"ring"`
		Algorithm string       `json:"algorithm"`
		D         int          `json:"d"`
		A         [][3]float64 `json:"a"`
		B         [][3]float64 `json:"b"`
		Xhat      [][2]int     `json:"xhat"`
	}{N: inst.N, Ring: r.Name(), Algorithm: p.Algorithm, D: d, A: cells(a), B: cells(b), Xhat: xhat}
	data, err := json.MarshalIndent(&req, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("request written to %s\n", outPath)
	return nil
}

func plansGC(st *planstore.Store, mb int) error {
	if mb <= 0 {
		return fmt.Errorf("plans gc: -store-mb must be positive (it is the budget to enforce)")
	}
	evicted, freed, err := st.GC()
	if err != nil {
		return err
	}
	fmt.Printf("gc: evicted %d entries, freed %d bytes (budget %d MiB)\n", evicted, freed, mb)
	return nil
}

func plansVerify(st *planstore.Store, fix bool) error {
	issues, err := st.Verify(fix)
	if err != nil {
		return err
	}
	if len(issues) == 0 {
		fmt.Println("verify: all entries decode and match their content address")
		return nil
	}
	for _, is := range issues {
		fmt.Printf("BAD %s: %v\n", is.Fingerprint, is.Err)
	}
	action := "left in place (rerun with -fix to quarantine)"
	if fix {
		action = "quarantined"
	}
	return fmt.Errorf("verify: %d bad entries %s", len(issues), action)
}
