package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/shard"
)

// runFingerprint drives `lbmm fingerprint`: print the core.Fingerprint of a
// structure + ring + algorithm without compiling anything — the routing
// debug tool for the shard tier (docs/SHARDING.md). The structure comes
// from a named workload generator (-workload/-n/-d) or from support files
// (-ahat/-bhat/-xhat). Ownership can be resolved two ways:
//
//	-shards id1,id2,…   compute the owner offline over a hypothetical ring
//	-via host:port      ask a live ring node (GET /shard/v1/owner)
func runFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	n := fs.Int("n", 64, "workload mode: matrix dimension")
	d := fs.Int("d", 4, "sparsity parameter (0 = derive from the structure)")
	wlName := fs.String("workload", "blocks", "workload (blocks|mixed|us|hotpair|powerlaw)")
	ahatPath := fs.String("ahat", "", "file mode: Â support file (.mtx pattern)")
	bhatPath := fs.String("bhat", "", "file mode: B̂ support file")
	xhatPath := fs.String("xhat", "", "file mode: X̂ support file")
	ringName := fs.String("ring", "counting", "ring (boolean|counting|minplus|maxplus|gfp|real)")
	algName := fs.String("alg", "auto", "algorithm (auto|trivial|lemma31|theorem42)")
	shards := fs.String("shards", "", "comma-separated shard IDs: also print the owning shard")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard for -shards (0 = default)")
	via := fs.String("via", "", "host:port of a live ring node: ask it who owns the fingerprint")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("fingerprint: unexpected argument %q", fs.Arg(0))
	}

	var ahat, bhat, xhat *matrix.Support
	filesGiven := *ahatPath != "" || *bhatPath != "" || *xhatPath != ""
	if filesGiven {
		if *ahatPath == "" || *bhatPath == "" || *xhatPath == "" {
			return fmt.Errorf("fingerprint: file mode needs all of -ahat, -bhat and -xhat")
		}
		var err error
		if ahat, err = readSupportFile(*ahatPath); err != nil {
			return err
		}
		if bhat, err = readSupportFile(*bhatPath); err != nil {
			return err
		}
		if xhat, err = readSupportFile(*xhatPath); err != nil {
			return err
		}
	} else {
		inst, err := workloadInstance(*wlName, *n, *d)
		if err != nil {
			return err
		}
		ahat, bhat, xhat = inst.Ahat, inst.Bhat, inst.Xhat
	}

	r, err := matrix.RingByName(*ringName)
	if err != nil {
		return err
	}
	opts := core.Options{Ring: r, D: *d, Algorithm: *algName}
	fp, err := core.Fingerprint(ahat, bhat, xhat, opts)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint  %s\n", fp)
	fmt.Printf("structure    n=%d nnz(Â)=%d nnz(B̂)=%d nnz(X̂)=%d\n", ahat.N, ahat.NNZ, bhat.NNZ, xhat.NNZ)
	fmt.Printf("options      ring=%s alg=%s d=%d (resolved %d)\n",
		r.Name(), *algName, *d, core.ResolveD(*d, ahat, bhat, xhat))

	if *shards != "" {
		var members []shard.Member
		for _, id := range strings.Split(*shards, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				members = append(members, shard.Member{ID: id})
			}
		}
		if len(members) == 0 {
			return fmt.Errorf("fingerprint: -shards lists no IDs")
		}
		ring := shard.BuildRing(members, *vnodes)
		owner, _ := ring.Owner(fp)
		fmt.Printf("owner        %s (of %d shards", owner.ID, len(members))
		for _, m := range members {
			fmt.Printf(", %s:%d‰", m.ID, ring.OwnedPermille(m.ID))
		}
		fmt.Printf(")\n")
	}
	if *via != "" {
		resp, err := http.Get("http://" + *via + "/shard/v1/owner?fp=" + fp)
		if err != nil {
			return fmt.Errorf("fingerprint: asking %s: %w", *via, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fingerprint: %s answered %s", *via, resp.Status)
		}
		var owner struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&owner); err != nil {
			return err
		}
		fmt.Printf("owner        %s at %s (live view of %s)\n", owner.ID, owner.Addr, *via)
	}
	return nil
}

func readSupportFile(path string) (*matrix.Support, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := matrix.ReadSupport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
