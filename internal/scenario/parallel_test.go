package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"spforest/engine"
)

// intraWorkerMatrix is the worker-count matrix of the parallel determinism
// battery: the serial reference, the smallest genuinely parallel setting,
// and whatever the host offers.
func intraWorkerMatrix() []int {
	matrix := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		matrix = append(matrix, p)
	}
	return matrix
}

// TestParallelDifferentialHarness runs the full differential battery —
// five SPF properties against the centralized ground truth, byte-exact
// "exact" agreement, rounds sanity, run-to-run determinism — at every
// matrix worker count. Any schedule-dependence in the parallel layer shows
// up as a ground-truth or determinism failure.
func TestParallelDifferentialHarness(t *testing.T) {
	for _, workers := range intraWorkerMatrix() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, sc := range All() {
				if testing.Short() && sc.S.N() > 200 {
					continue
				}
				if sc.Holed() {
					continue // solver battery needs the hole-free closure; covered below
				}
				if err := CheckSolversConfig(sc.S, nameSeed(sc.Name), engine.Config{IntraWorkers: workers}); err != nil {
					t.Errorf("%s: %v", sc.Name, err)
				}
			}
		})
	}
}

// TestParallelByteIdenticalAcrossWorkerCounts is the direct cross-count
// comparison: for every scenario × solver, the forest bytes, the simulated
// rounds and the beep counts at IntraWorkers ∈ {1, 2, GOMAXPROCS} must be
// identical — zero drift, not merely "all correct".
func TestParallelByteIdenticalAcrossWorkerCounts(t *testing.T) {
	matrix := intraWorkerMatrix()
	for _, sc := range All() {
		if testing.Short() && sc.S.N() > 200 {
			continue
		}
		seed := nameSeed(sc.Name)
		sets := sc.SourceSets()
		srcs, spread, all := sets[1], sets[len(sets)-1], sc.S.Coords()
		type outcome struct {
			forest        []byte
			rounds, beeps int64
		}
		for _, algo := range engine.Solvers() {
			if sc.Holed() && !engine.HoleTolerant(algo) {
				continue
			}
			q, _ := QueryFor(algo, srcs, spread, all)
			var ref *outcome
			for _, workers := range matrix {
				cfg := engine.Config{Seed: seed, IntraWorkers: workers, AllowHoles: sc.Holed()}
				e, err := engine.New(sc.S, &cfg)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", sc.Name, workers, err)
				}
				res, err := e.Run(q)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", sc.Name, algo, workers, err)
				}
				fb, _ := res.Forest.MarshalText()
				got := &outcome{forest: fb, rounds: res.Stats.Rounds, beeps: res.Stats.Beeps}
				if ref == nil {
					ref = got
					continue
				}
				if got.rounds != ref.rounds || got.beeps != ref.beeps {
					t.Errorf("%s/%s: workers=%d charged %d/%d rounds/beeps, reference charged %d/%d",
						sc.Name, algo, workers, got.rounds, got.beeps, ref.rounds, ref.beeps)
				}
				if !bytes.Equal(got.forest, ref.forest) {
					t.Errorf("%s/%s: forest at workers=%d diverges byte-wise from reference",
						sc.Name, algo, workers)
				}
			}
		}
	}
}
