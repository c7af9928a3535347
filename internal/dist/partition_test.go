package dist

import (
	"reflect"
	"testing"

	"lbmm/internal/lbm"
)

// TestBalancedTableDeterministic pins the coordination property: every
// participant must derive the identical table from the identical loads, so
// equal inputs — including ties — must produce equal tables.
func TestBalancedTableDeterministic(t *testing.T) {
	send := []int64{9, 1, 1, 9, 4, 4, 0, 0}
	recv := []int64{1, 9, 9, 1, 4, 4, 0, 0}
	first := BalancedTable(send, recv, 3)
	for i := 0; i < 10; i++ {
		if got := BalancedTable(send, recv, 3); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d produced a different table: %v vs %v", i, got, first)
		}
	}
	if len(first) != 8 {
		t.Fatalf("table covers %d nodes, want 8", len(first))
	}
	if err := ValidateTable(first, 3); err != nil {
		t.Fatalf("balanced table invalid: %v", err)
	}
}

// TestBalancedTableBeatsModuloOnSkew pins the point of the balancer: on a
// load profile concentrated on a few hub nodes that the modulo map happens
// to co-locate, the balanced max-per-rank load must come out strictly lower.
func TestBalancedTableBeatsModuloOnSkew(t *testing.T) {
	// Hubs at nodes 0 and 4: both ≡ 0 mod 2, so modulo piles them on rank 0.
	send := []int64{100, 1, 1, 1, 100, 1, 1, 1}
	recv := make([]int64, 8)
	maxRankLoad := func(table []uint16) int64 {
		p := Partition{Workers: 2, Table: table}
		var loads [2]int64
		for v, l := range send {
			loads[p.RankOf(lbm.NodeID(v))] += l
		}
		return max(loads[0], loads[1])
	}
	moduloMax := maxRankLoad(nil)
	balanced := BalancedTable(send, recv, 2)
	balancedMax := maxRankLoad(balanced)
	if balancedMax >= moduloMax {
		t.Fatalf("balanced max rank load %d, modulo %d — balancer did not help", balancedMax, moduloMax)
	}
	// The two hubs must land on different ranks.
	if balanced[0] == balanced[4] {
		t.Fatalf("both hub nodes assigned to rank %d", balanced[0])
	}
}

// TestBalancedTableSpreadsZeroTail pins the secondary tie-break: nodes with
// zero load still spread across ranks by node count instead of piling onto
// one bin, so store placement stays roughly even.
func TestBalancedTableSpreadsZeroTail(t *testing.T) {
	send := make([]int64, 12)
	recv := make([]int64, 12)
	table := BalancedTable(send, recv, 4)
	counts := make([]int, 4)
	for _, rk := range table {
		counts[rk]++
	}
	for rk, c := range counts {
		if c != 3 {
			t.Fatalf("rank %d owns %d of 12 zero-load nodes, want 3 (counts %v)", rk, c, counts)
		}
	}
}

// TestPartitionRankOf pins the table lookup and the modulo fallback for
// nodes beyond the table.
func TestPartitionRankOf(t *testing.T) {
	p := Partition{Workers: 3, Rank: 1, Table: []uint16{2, 2, 0}}
	if got := p.RankOf(0); got != 2 {
		t.Errorf("RankOf(0) = %d, want 2", got)
	}
	if !p.Owns(lbm.NodeID(4)) { // beyond the table: 4 mod 3 = 1 = our rank
		t.Error("node 4 should fall back to the modulo map and land on rank 1")
	}
	if p.Owns(lbm.NodeID(0)) {
		t.Error("node 0 is tabled to rank 2, not ours")
	}
}

// TestValidateTable pins the wire-safety check: a table naming a
// nonexistent rank must be rejected before any execution starts.
func TestValidateTable(t *testing.T) {
	if err := ValidateTable(nil, 2); err != nil {
		t.Errorf("empty table rejected: %v", err)
	}
	if err := ValidateTable([]uint16{0, 1, 1}, 2); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	if err := ValidateTable([]uint16{0, 2}, 2); err == nil {
		t.Error("table naming rank 2 of 2 was accepted")
	}
}
