//go:build !race

package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"spforest"
	"spforest/engine"
)

// TestForestQueryAllocationBound pins the host memory of a forest query
// on a 16k-amoebot blob: with 16 sources and every amoebot a destination,
// the median query allocates at most 20 MB. Sub-region steps that
// allocated n-sized portal-ID columns and forests for every invisible
// component and merge measured 40 MB per query. The race detector makes
// sync.Pool drop a random quarter of its puts, hence the build tag.
func TestForestQueryAllocationBound(t *testing.T) {
	const maxBytes = 20 << 20
	s := spforest.RandomBlob(1, 16000)
	e, err := engine.New(s, &engine.Config{Seed: 1, IntraWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Leader()
	e.Warm()
	all := s.Coords()
	query := func(seed int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(engine.Query{Algo: engine.AlgoForest, Sources: spforest.RandomCoords(seed, s, 16), Dests: all}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	query(1) // warm-up: fills the recycled columns and arenas
	query(2)
	var bytes []uint64
	for seed := int64(3); seed < 7; seed++ {
		bytes = append(bytes, query(seed))
	}
	slices.Sort(bytes)
	median := (bytes[1] + bytes[2]) / 2
	t.Logf("median %.1f MB allocated per forest query", float64(median)/(1<<20))
	if median > maxBytes {
		t.Fatalf("forest query allocates %.1f MB (median of %v bytes), want at most %d MB",
			float64(median)/(1<<20), bytes, maxBytes>>20)
	}
}
