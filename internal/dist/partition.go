package dist

import (
	"fmt"
	"sort"

	"lbmm/internal/lbm"
)

// Partition is the node-ownership map of a distributed execution. Without a
// Table, node v lives on rank int(v) mod Workers — every participant
// derives the same map from the (Workers, Rank) pair, so ownership never
// travels on the wire. With a Table, ownership is the explicit node→rank
// assignment Table[v]: a compact []uint16 shipped once in the job frame
// (docs/DIST.md), letting a coordinator bin nodes by the per-node loads
// of the compiled plan (core.Prepared.NodeLoads) instead of by node count. Nodes beyond the table (none, for a well-formed job)
// fall back to the modulo map.
type Partition struct {
	Workers int
	Rank    int
	// Table, when non-empty, maps node → owning rank explicitly. Entries
	// must be < Workers (ValidateTable).
	Table []uint16
}

// Owns reports whether node v's store lives on this rank.
func (p Partition) Owns(v lbm.NodeID) bool { return p.RankOf(v) == p.Rank }

// RankOf returns the rank owning node v.
func (p Partition) RankOf(v lbm.NodeID) int {
	if int(v) < len(p.Table) {
		return int(p.Table[v])
	}
	return int(v) % p.Workers
}

// ValidateTable checks an explicit assignment table against a worker
// count: every entry must name an existing rank. An empty table is valid
// (the modulo map).
func ValidateTable(table []uint16, workers int) error {
	for v, rk := range table {
		if int(rk) >= workers {
			return fmt.Errorf("dist: partition table assigns node %d to rank %d of %d", v, rk, workers)
		}
	}
	return nil
}

// BalancedTable builds a load-aware node→rank assignment by greedy LPT
// (longest processing time) binning: nodes sorted by descending per-node
// load — send[v]+recv[v], the communication volume the low-bandwidth cost
// measure actually charges — are assigned one by one to the currently
// lightest rank. The modulo map balances node counts; on skewed structures
// (power-law hubs) that leaves some ranks carrying a multiple of the
// per-rank communication of others, which is exactly the quantity the
// model bounds. Ties break deterministically (lower node, then lower rank),
// so every caller derives the identical table from the identical loads.
func BalancedTable(send, recv []int64, workers int) []uint16 {
	n := len(send)
	if len(recv) > n {
		n = len(recv)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	load := func(v int) int64 {
		var l int64
		if v < len(send) {
			l += send[v]
		}
		if v < len(recv) {
			l += recv[v]
		}
		return l
	}
	sort.SliceStable(order, func(i, j int) bool {
		li, lj := load(order[i]), load(order[j])
		if li != lj {
			return li > lj
		}
		return order[i] < order[j]
	})
	table := make([]uint16, n)
	binLoad := make([]int64, workers)
	binNodes := make([]int, workers)
	for _, v := range order {
		best := 0
		for rk := 1; rk < workers; rk++ {
			// Primary: lightest communication load. Secondary: fewest nodes,
			// so zero-load tails still spread instead of piling on rank 0.
			if binLoad[rk] < binLoad[best] ||
				(binLoad[rk] == binLoad[best] && binNodes[rk] < binNodes[best]) {
				best = rk
			}
		}
		table[v] = uint16(best)
		binLoad[best] += load(v)
		binNodes[best]++
	}
	return table
}
