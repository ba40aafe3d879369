//go:build !race

package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
)

// TestForestQueryAllocationBound pins the host memory of a forest query
// on a 16k-amoebot blob: with 16 sources and every amoebot a destination,
// the median query allocates at most 8 MB (about 5 MB here). Sub-region
// steps that allocated n-sized portal-ID columns and forests for every
// invisible component and merge measured 40 MB per query, and the
// searched portal sides 7 MB. The race detector makes sync.Pool drop a
// random quarter of its puts, hence the build tag.
func TestForestQueryAllocationBound(t *testing.T) {
	const maxBytes = 8 << 20
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

// TestApplyAllocationBound pins the host memory of a churn step: along
// the translateChains (10 translate-front steps in each of the six
// directions on a warmed Hexagon(100) engine), the median Apply allocates
// at most 2.4 MB. The
// derived structure must own about 2.2 MB: coordinates, adjacency, the
// remap, three portal-ID columns and the y and z CSR node lists. A step
// that also builds a new → old index column, n-sized dirty-zone or
// footprint marks, or its own identity and x-portal node lists allocates
// 2.73 MB and fails. The chains run twice: from the engine as warmed, and
// after Distances has memoized 8 source sets on it, which a step must not
// carry (remapping and repairing them cost about 3.2 MB per step).
func TestApplyAllocationBound(t *testing.T) {
	const maxBytes = 2.4 * (1 << 20)
	e0, chains := translateChains(t)
	ldr, _ := e0.Leader()
	for _, memo := range []int{0, 8} {
		for i := range memo {
			if _, err := e0.Distances([]amoebot.Coord{ldr, spforest.RandomCoords(int64(i), e0.Structure(), 1)[0]}); err != nil {
				t.Fatal(err)
			}
		}
		if n := e0.CacheStats().DistEntries; n != memo {
			t.Fatalf("%d distance entries memoized, want %d", n, memo)
		}
		var bytes []uint64
		for dir, chain := range chains {
			e := e0
			var before, after runtime.MemStats
			for _, d := range chain {
				runtime.ReadMemStats(&before)
				ne, err := e.Apply(d)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if cs := ne.CacheStats(); cs.PortalsPatched != int64(amoebot.NumAxes) {
					t.Fatalf("direction %v: %d axes patched, want all %d", amoebot.Direction(dir), cs.PortalsPatched, amoebot.NumAxes)
				}
				bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
				e = ne
			}
		}
		slices.Sort(bytes)
		median := bytes[len(bytes)/2]
		t.Logf("%d memoized distance entries: median %.2f MB allocated per Apply (%.2f–%.2f MB over %d steps)",
			memo, float64(median)/(1<<20), float64(bytes[0])/(1<<20), float64(bytes[len(bytes)-1])/(1<<20), len(bytes))
		if float64(median) > maxBytes {
			t.Fatalf("%d memoized distance entries: Apply allocates %.2f MB per step (median), want at most 2.4 MB",
				memo, float64(median)/(1<<20))
		}
	}
}

// TestRejectedRunAllocationBound pins the cost of a query a holed engine
// rejects: spfserve builds every engine with AllowHoles, so a portal-based
// query on a holed structure is a serving-path error. New stores the hole
// count of the validation pass, and the rejection formats it, so the
// mean rejected Run on a 20k holed blob allocates fewer bytes than the
// structure has amoebots. Recounting the holes on every rejection ran a
// component search and the edge/triangle tally and allocated about five
// bytes per amoebot.
func TestRejectedRunAllocationBound(t *testing.T) {
	const runs = 20
	s := spforest.RandomHoledBlob(3, 20000, 2)
	e, err := engine.New(s, &engine.Config{Seed: 1, IntraWorkers: 1, AllowHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Algo: engine.AlgoForest, Sources: s.Coords()[:1]}
	if _, err := e.Run(q); err == nil {
		t.Fatal("forest query on a holed engine succeeded")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := e.Run(q); err == nil {
			t.Fatal("forest query on a holed engine succeeded")
		}
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("mean %d bytes allocated per rejected Run (n = %d)", mean, s.N())
	if mean >= uint64(s.N()) {
		t.Fatalf("a rejected Run allocates %d bytes, want fewer than n = %d", mean, s.N())
	}
}
