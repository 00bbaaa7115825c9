package experiments

import (
	"runtime"
	"sync"
)

// parallelFor runs fn(i) for every i in [0, n) on a bounded worker pool: at
// most `workers` goroutines exist at any moment, fed from a shared index
// channel. This replaces the spawn-then-gate pattern (one goroutine per job
// created up front, gated by a semaphore) whose memory footprint grew with
// the job count rather than the worker count. workers <= 1 (or n <= 1)
// degenerates to a plain loop on the calling goroutine.
//
// fn must touch only state owned by its index; callers merge results in
// index order after parallelFor returns. That split — scheduling-dependent
// execution, index-ordered merge — is what keeps every derived value
// bit-identical to sequential execution regardless of worker count or
// GOMAXPROCS.
//
//altlint:spawn-ok bounded worker pool; results merge in index order after return
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
}

// replicate is the one seed-replicate engine: it runs fn(i) for every i in
// [0, n) on parallelFor's pool (at most workers goroutines; workers <= 1 or
// n <= 1 is a plain loop on the calling goroutine), each call filling slot
// i, and returns the slots in index order with the first error in index
// order. When job k is the first to fail only slots 0..k come back — the
// prefix a sequential loop stopping at its first error would have produced
// — so a caller that commits side effects from the slots commits the same
// prefix at every worker count.
func replicate[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	slots := make([]T, n)
	errs := make([]error, n)
	parallelFor(n, workers, func(i int) {
		slots[i], errs[i] = fn(i)
	})
	for i, err := range errs {
		if err != nil {
			return slots[:i+1], err
		}
	}
	return slots, nil
}

// workers resolves the Parallelism option to a concrete worker count:
// 0 means one worker per GOMAXPROCS slot, anything positive is taken
// literally (1 = sequential).
func (p SimParams) workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
