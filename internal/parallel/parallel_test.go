package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 31, 100} {
			hits := make([]int32, n)
			For(workers, n, func(w, lo, hi int) {
				if w < 0 || w >= clampWorkers(workers, n) {
					t.Errorf("workers=%d n=%d: worker index %d out of range", workers, n, w)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: element %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSerialRunsInline(t *testing.T) {
	calls := 0
	For(1, 10, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 10 {
			t.Fatalf("serial call got (%d, %d, %d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial For made %d calls", calls)
	}
}
