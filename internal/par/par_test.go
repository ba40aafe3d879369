package par

import (
	"sync/atomic"
	"testing"

	"spforest/internal/dense"
)

func TestWorkersDefaults(t *testing.T) {
	var nilExec *Exec
	if got := nilExec.Workers(); got != 1 {
		t.Fatalf("nil exec workers = %d, want 1", got)
	}
	if got := nilExec.Arena(); got != nil {
		t.Fatalf("nil exec arena = %v, want nil", got)
	}
	if got := (&Exec{}).Workers(); got != 1 {
		t.Fatalf("zero exec workers = %d, want 1", got)
	}
	if got := New(7, nil).Workers(); got != 7 {
		t.Fatalf("New(7) workers = %d, want 7", got)
	}
	if got := New(0, nil).Workers(); got < 1 {
		t.Fatalf("New(0) workers = %d, want >= 1 (GOMAXPROCS)", got)
	}
	ar := dense.NewArena()
	if got := New(2, ar).Arena(); got != ar {
		t.Fatalf("arena not threaded through")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			e := New(workers, nil)
			counts := make([]int32, n)
			e.For(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestReduceDeterministicOrder pins the index-order fold with a
// non-commutative merge (list concatenation): the result must be the
// identity permutation at every worker count.
func TestReduceDeterministicOrder(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 2, 3, 5, 16} {
		e := New(workers, nil)
		got := Reduce(e, n,
			func(lo, hi int) []int {
				out := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					out = append(out, i)
				}
				return out
			},
			func(acc, part []int) []int { return append(acc, part...) })
		if len(got) != n {
			t.Fatalf("workers=%d: %d elements, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: position %d holds %d (arrival-order merge?)", workers, i, v)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	const n = 4096
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 4} {
		e := New(workers, nil)
		got := Reduce(e, n,
			func(lo, hi int) int {
				s := 0
				for i := lo; i < hi; i++ {
					s += i
				}
				return s
			},
			func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	e := New(4, nil)
	got := Reduce(e, 0,
		func(lo, hi int) int { t.Fatal("mapChunk called for n=0"); return 0 },
		func(a, b int) int { return a + b })
	if got != 0 {
		t.Fatalf("empty reduce = %d, want zero value", got)
	}
}
