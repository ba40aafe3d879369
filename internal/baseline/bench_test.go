package baseline

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spforest/amoebot"
	"spforest/internal/par"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// The flood-fill benchmarks run on the hexagons of radius 130 and 577
// (n = 51,091 and 1,000,519) from four random sources, with an executor of
// GOMAXPROCS workers, so
// `go test -run NONE -bench 'ExactExec|BFSForestExec' -cpu 1,2 ./internal/baseline`
// times both bodies at one and two workers.

// The sinks keep the compiler from dropping the timed calls.
var (
	distSink   []int32
	forestSink *amoebot.Forest
)

func benchFlood(b *testing.B, run func(ex *par.Exec, region *amoebot.Region, srcs []int32)) {
	for _, r := range []int{130, 577} {
		b.Run(fmt.Sprintf("n=%d", 3*r*(r+1)+1), func(b *testing.B) {
			s := shapes.Hexagon(r)
			region := amoebot.WholeRegion(s)
			srcs := shapes.RandomSubset(rand.New(rand.NewSource(1)), s, 4)
			ex := par.New(runtime.GOMAXPROCS(0), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(ex, region, srcs)
			}
		})
	}
}

func BenchmarkExactExec(b *testing.B) {
	benchFlood(b, func(ex *par.Exec, region *amoebot.Region, srcs []int32) {
		distSink, _ = ExactExec(ex, region, srcs)
	})
}

func BenchmarkBFSForestExec(b *testing.B) {
	benchFlood(b, func(ex *par.Exec, region *amoebot.Region, srcs []int32) {
		var clock sim.Clock
		forestSink = BFSForestExec(ex, &clock, region, srcs)
	})
}
