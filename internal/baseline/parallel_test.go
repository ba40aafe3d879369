package baseline

import (
	"bytes"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/par"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// TestParallelMatchesSerial pins byte-equality of the level-parallel BFS
// backends against the serial reference across worker counts.
func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 50, 400, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := shapes.RandomBlob(rng, n)
		region := amoebot.WholeRegion(s)
		k := 1 + n%5
		if k > s.N() {
			k = s.N()
		}
		srcs := shapes.RandomSubset(rng, s, k)
		wantDist, wantNearest := ExactExec(nil, region, srcs)
		var wantClock sim.Clock
		wantForest := BFSForestExec(nil, &wantClock, region, srcs)
		wantBytes, _ := wantForest.MarshalText()
		for _, workers := range []int{2, 3, 8} {
			ex := par.New(workers, nil)
			gotDist, gotNearest := ExactExec(ex, region, srcs)
			for i := range wantDist {
				if gotDist[i] != wantDist[i] || gotNearest[i] != wantNearest[i] {
					t.Fatalf("n=%d workers=%d: Exact diverges at node %d: dist %d/%d nearest %d/%d",
						n, workers, i, gotDist[i], wantDist[i], gotNearest[i], wantNearest[i])
				}
			}
			var clock sim.Clock
			got := BFSForestExec(ex, &clock, region, srcs)
			gotBytes, _ := got.MarshalText()
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("n=%d workers=%d: BFS forest diverges from serial", n, workers)
			}
			if clock.Rounds() != wantClock.Rounds() || clock.Beeps() != wantClock.Beeps() {
				t.Fatalf("n=%d workers=%d: accounting %d/%d, want %d/%d",
					n, workers, clock.Rounds(), clock.Beeps(), wantClock.Rounds(), wantClock.Beeps())
			}
		}
	}
}
