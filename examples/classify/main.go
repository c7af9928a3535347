// Classification explorer: Table 2 live. For each combination of sparsity
// classes it generates a representative instance, classifies it, runs it,
// and prints the measured cost next to the paper's bounds. The full table
// runs each band's algorithm (exper.Table2); a single row runs
// core.Multiply's auto, the cheapest plan.
//
//	go run ./examples/classify [A B X]
//
// e.g. `go run ./examples/classify US BD AS`; with no arguments the full
// 20-row table is produced.
package main

import (
	"fmt"
	"log"
	"os"

	"lbmm/internal/core"
	"lbmm/internal/exper"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func main() {
	if len(os.Args) == 4 {
		one(os.Args[1], os.Args[2], os.Args[3])
		return
	}
	rows, err := exper.Table2(exper.Quick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(exper.FormatTable2(rows))
}

func one(sa, sb, sx string) {
	ca, err := matrix.ParseClass(sa)
	must(err)
	cb, err := matrix.ParseClass(sb)
	must(err)
	cx, err := matrix.ParseClass(sx)
	must(err)

	n, d := 48, 3
	inst := workload.Instance(ca, cb, cx, n, d, 1)
	fmt.Println("instance:", workload.Describe(inst))

	band := core.Classify(ca, cb, cx)
	up, lo := band.Bounds()
	fmt.Printf("Table 2 band: %v\n  upper bound: %s\n  lower bound: %s\n", band, up, lo)

	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	_, rep, err := core.Multiply(a, b, inst.Xhat, core.Options{Ring: r, D: d})
	must(err)
	fmt.Printf("measured: algorithm %s, %d rounds, %d messages (verified)\n",
		rep.Name, rep.Rounds, rep.Stats.Messages)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
