package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000, 4096} {
		var seen = make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForWithSingleWorkerIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	order := make([]int, 0, 100)
	For(100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken at %d: got %d", i, v)
		}
	}
}

func TestForWithMoreWorkersThanItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(128))
	var count int64
	For(100, func(i int) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(i int) { called = true })
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestForRangeCoversDisjointly(t *testing.T) {
	for _, n := range []int{1, 64, 100, 1023} {
		var seen = make([]int32, n)
		ForRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}
