package core

import (
	"fmt"
	"testing"

	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

func lineFixture(n int) (chain, srcs []int32) {
	chain = make([]int32, n)
	for i := range chain {
		chain[i] = int32(i)
	}
	for i := 0; i < n; i += 64 {
		srcs = append(srcs, int32(i))
	}
	return chain, srcs
}

// TestLaneLineForestScratchRecycled pins the line algorithm's allocation
// profile in bytes: with a warmed arena, every per-slot scratch column —
// the source flags, the chain position index and the eastward distance
// column — is recycled, so the steady-state bytes per call stay near the
// ~4n of the output forest itself. Before its scratch moved to the arena
// the call allocated ~69n (flag, parent, participant and comparator
// columns and two non-arena PASC builds), so the 24n bound cleanly
// separates recycled from reintroduced per-slot makes of that kind.
func TestLaneLineForestScratchRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the allocation profile")
	}
	const n = 1 << 13
	s := shapes.Line(n)
	chain, srcs := lineFixture(n)
	env := NewEnv(par.New(1, dense.NewArena()), nil)
	var warm sim.Clock
	LineForestEnv(env, &warm, s, chain, srcs)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			LineForestEnv(env, &clock, s, chain, srcs)
		}
	})
	if perOp := res.AllocedBytesPerOp(); perOp > 24*n {
		t.Fatalf("line query allocates %d B/op at n=%d (%.1fn), want scratch recycled (≤ 24n)",
			perOp, n, float64(perOp)/n)
	}
}

func BenchmarkLineForestEnv(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := shapes.Line(n)
			chain, srcs := lineFixture(n)
			env := NewEnv(par.New(1, dense.NewArena()), nil)
			var warm sim.Clock
			LineForestEnv(env, &warm, s, chain, srcs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var clock sim.Clock
				LineForestEnv(env, &clock, s, chain, srcs)
			}
		})
	}
}
