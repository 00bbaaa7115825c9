package paths_test

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/paths"
)

// The min-hop primary and the ordered alternate suite for one O-D pair of
// the paper's quadrangle: the direct link first, then the two 2-hop and two
// 3-hop detours.
func ExampleAlternates() {
	g := netmodel.Quadrangle()
	primary, _ := paths.MinHop(g, 0, 1)
	fmt.Println("primary:", primary)
	for _, alt := range paths.Alternates(g, 0, 1, primary, 0) {
		fmt.Println("alternate:", alt)
	}
	// Output:
	// primary: 0→1
	// alternate: 0→2→1
	// alternate: 0→3→1
	// alternate: 0→2→3→1
	// alternate: 0→3→2→1
}

// The exhaustive loop-free enumeration, capped at two hops, lists the
// same suite in (length, lexicographic) order, the primary included.
func ExampleAllLoopFree() {
	g := netmodel.Quadrangle()
	for _, p := range paths.AllLoopFree(g, 0, 1, 2) {
		fmt.Println(p)
	}
	// Output:
	// 0→1
	// 0→2→1
	// 0→3→1
}
