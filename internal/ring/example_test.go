package ring_test

import (
	"fmt"

	"lbmm/internal/ring"
)

// ExampleNewGFp shows exact prime-field arithmetic.
func ExampleNewGFp() {
	f := ring.NewGFp(7)
	fmt.Println(f.Mul(3, 5))
	fmt.Println(f.Sub(2, 5))
	// Output:
	// 1
	// 4
}
