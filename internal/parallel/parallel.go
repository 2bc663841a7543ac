package parallel

import (
	"runtime"
	"sync"
)

// minGrain is the smallest per-goroutine chunk worth spawning for. Work
// items cheaper than a few hundred nanoseconds amortise poorly; callers
// with very cheap bodies should batch before calling For.
const minGrain = 64

// For executes fn(i) for every i in [0, n) using up to GOMAXPROCS
// goroutines. It blocks until all iterations complete. fn must be safe
// for concurrent invocation on distinct indices.
func For(n int, fn func(i int)) {
	ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForRange executes fn(lo, hi) over disjoint contiguous sub-ranges
// covering [0, n), one call per worker (up to GOMAXPROCS). It is the
// preferred form when the body can hoist per-chunk setup (e.g. slice
// re-slicing) out of the inner loop. A single worker, or n below the
// parallel grain, runs fn(0, n) on the calling goroutine.
func ForRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < minGrain {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	// Static chunking: contiguous ranges maximise cache locality for the
	// dense-array workloads this package serves.
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
