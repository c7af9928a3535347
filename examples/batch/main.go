// Batch: drive the dynamic batching subsystem — 64 concurrent multiplies
// over one shared sparsity structure against a batching server. The
// coalescer groups the in-flight requests by plan fingerprint and executes
// each group as a single lane-strided pass over the compiled plan: one
// instruction-stream walk carries every lane, so the batch costs the
// rounds (and most of the host time) of ONE multiply. The batch metrics
// afterwards show how the 64 requests coalesced.
//
//	go run ./examples/batch
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

func main() {
	const k = 64
	srv := service.NewServer(service.Config{
		CacheSize:  16,
		BatchSize:  16, // up to 16 lanes per batched run
		BatchDelay: 2 * time.Millisecond,
		// Room for the whole burst to wait: the default, 4 per worker,
		// would let admission shed lanes before the coalescer groups them.
		QueueDepth: k,
	})
	defer srv.Close()
	ctx := context.Background()

	// One structure, many value sets — the supported model's premise, and
	// exactly the traffic shape batching exploits: every request below
	// resolves to the same plan fingerprint.
	r := ring.Counting{}
	inst := workload.Blocks(64, 4)
	opts := core.Options{Ring: r}
	if _, err := srv.Prepare(ctx, &service.PrepareRequest{
		Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: opts,
	}); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	rounds := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := matrix.Random(inst.Ahat, r, int64(2*i+1))
			b := matrix.Random(inst.Bhat, r, int64(2*i+2))
			resp, err := srv.Multiply(ctx, &service.MultiplyRequest{
				A: a, B: b, Xhat: inst.Xhat, Options: opts,
			})
			if err != nil {
				errs[i] = err
				return
			}
			rounds[i] = resp.Report.Rounds
			if want := matrix.MulReference(a, b, inst.Xhat); !matrix.Equal(resp.X, want) {
				errs[i] = fmt.Errorf("request %d: wrong product", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d concurrent multiplies over one structure, all verified; every one cost %d rounds\n", k, rounds[0])

	m := srv.Metrics()
	batches := m["batch/size/count"]
	lanes := m["batch/size/sum"]
	fmt.Printf("coalesced into %d batched runs (%.1f lanes/batch on average)\n",
		batches, float64(lanes)/float64(batches))
	fmt.Println("\nbatch counters:")
	names := make([]string, 0, len(m))
	for name := range m {
		if strings.HasPrefix(name, "batch/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-22s %d\n", name, m[name])
	}
}
