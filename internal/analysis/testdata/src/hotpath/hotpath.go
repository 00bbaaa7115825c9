// Package hotpath exercises the hotpath escape-analysis rule: the
// annotated function allocates, and with an empty baseline that escape is
// a finding; the test then sanctions it through an explicit baseline and
// expects silence. Cold is unannotated, for the stale-baseline test.
package hotpath

// Grow is annotated hotpath and returns a fresh slice — a heap escape.
//
//altlint:hotpath
func Grow(n int) []int {
	out := make([]int, n) // want hotpath
	return out
}

// Sum is annotated hotpath and clean: everything stays on the stack.
//
//altlint:hotpath
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Cold is not annotated: a baseline key naming it is stale.
func Cold(xs []int) []int {
	return append(xs, 0)
}
