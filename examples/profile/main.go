// Profile: multiply a skewed power-law workload with the observability
// layer attached, export the machine-readable trace (schema lbmm.trace.v1,
// see docs/OBSERVABILITY.md) to a JSON file, and print the per-phase round
// breakdown.
//
//	go run ./examples/profile
package main

import (
	"fmt"
	"log"
	"os"

	"lbmm/internal/algo"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func main() {
	// A power-law instance: a few hot rows carry most of the entries, the
	// tail thins out as 1/rank. Skew is exactly what the per-node load
	// vectors and phase spans are built to expose.
	const n, d = 64, 4
	inst := workload.PowerLaw(n, d, 42)
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)

	// Plan and compile Theorem 4.2 for the structure, then run the compiled
	// program on the values as a one-lane batch. lbm.WithTrace attaches the
	// obsv.Profile collector; the returned Result then carries the
	// structured profile alongside the round count.
	p, err := algo.PrepareTheorem42(r, inst)
	if err != nil {
		log.Fatal(err)
	}
	got, res, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b}, lbm.WithTrace())
	if err != nil {
		log.Fatal(err)
	}
	if err := algo.Verify(got[0], a, b, inst.Xhat); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s\n", res.Name, workload.Describe(inst))
	fmt.Printf("total %d rounds (phase1 %d, phase2 %d), %d messages\n\n",
		res.Rounds, res.Phase1Rounds, res.Phase2Rounds, res.Stats.Messages)

	// Per-phase breakdown: rounds, messages, and a message-volume sparkline
	// for every span the builders annotated.
	fmt.Print(res.Profile.Summary())

	// Machine-readable export for external tooling.
	e := res.Profile.Export()
	e.Meta = map[string]string{
		"algorithm": res.Name,
		"workload":  "powerlaw",
		"instance":  workload.Describe(inst),
	}
	const out = "profile_trace.json"
	fh, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer fh.Close()
	if err := e.WriteJSON(fh); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace written to %s (schema %s)\n", out, e.Schema)
	fmt.Printf("peak per-computer load: %d sent, %d received\n",
		e.MaxSendLoad, e.MaxRecvLoad)
}
