package matrix_test

import (
	"fmt"

	"lbmm/internal/matrix"
)

// ExampleSupport_Classify shows the sparsity lattice in action: one dense
// row plus one dense column is 1-degenerate (class BD) even though neither
// rows nor columns are uniformly sparse.
func ExampleSupport_Classify() {
	n := 8
	var entries [][2]int
	for i := 0; i < n; i++ {
		entries = append(entries, [2]int{0, i}, [2]int{i, 0})
	}
	s := matrix.NewSupport(n, entries)
	fmt.Println("degeneracy:", s.Degeneracy())
	fmt.Println("class at d=1:", s.Classify(1))
	// Output:
	// degeneracy: 1
	// class at d=1: BD
}
