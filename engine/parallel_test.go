package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/shapes"
)

// TestIntraWorkersByteIdentical pins the engine-level determinism contract
// on structures large enough to clear the parallel layer's fan-out
// thresholds: every solver must produce byte-identical forests and
// identical rounds/beeps at IntraWorkers ∈ {1, 2, GOMAXPROCS}. On the comb
// with k = 4 (TestEnvelopeForestIndependentOfDiameter's input) two active
// portals of one centroid level touch the same region, so the forest's
// parallel merge level falls back to its serial walk.
func TestIntraWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blob := shapes.RandomBlob(rng, 1200)
	comb := shapes.Comb(8, 250)
	inputs := []struct {
		name   string
		s      *amoebot.Structure
		srcIdx []int32
	}{
		{"blob", blob, shapes.RandomSubset(rng, blob, 6)},
		{"comb", comb, shapes.RandomSubset(rand.New(rand.NewSource(13)), comb, 4)},
	}
	matrix := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, in := range inputs {
		s := in.s
		sources := make([]amoebot.Coord, len(in.srcIdx))
		for i, idx := range in.srcIdx {
			sources[i] = s.Coord(idx)
		}
		ref := map[string]*engine.Result{}
		for mi, workers := range matrix {
			e, err := engine.New(s, &engine.Config{Seed: 7, IntraWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range engine.Solvers() {
				q, ok := queryForAlgo(s, algo, sources)
				if !ok {
					continue
				}
				res, err := e.Run(q)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", in.name, algo, workers, err)
				}
				if mi == 0 {
					ref[algo] = res
					continue
				}
				want := ref[algo]
				if res.Stats.Rounds != want.Stats.Rounds || res.Stats.Beeps != want.Stats.Beeps {
					t.Errorf("%s %s: workers=%d charged %d/%d rounds/beeps, serial charged %d/%d",
						in.name, algo, workers, res.Stats.Rounds, res.Stats.Beeps, want.Stats.Rounds, want.Stats.Beeps)
				}
				got, _ := res.Forest.MarshalText()
				exp, _ := want.Forest.MarshalText()
				if !bytes.Equal(got, exp) {
					t.Errorf("%s %s: forest at workers=%d diverges byte-wise from the serial path", in.name, algo, workers)
				}
			}
		}
	}
}

// queryForAlgo shapes an arity-appropriate query (mirrors the golden
// test's rules).
func queryForAlgo(s *amoebot.Structure, algo string, sources []amoebot.Coord) (engine.Query, bool) {
	all := s.Coords()
	switch algo {
	case engine.AlgoSPT:
		return engine.Query{Algo: algo, Sources: sources[:1], Dests: all}, true
	case engine.AlgoSPSP:
		return engine.Query{Algo: algo, Sources: sources[:1], Dests: all[len(all)-1:]}, true
	case engine.AlgoSSSP:
		return engine.Query{Algo: algo, Sources: sources[:1]}, true
	case engine.AlgoForest, engine.AlgoSequential, engine.AlgoExact:
		return engine.Query{Algo: algo, Sources: sources, Dests: all}, true
	case engine.AlgoBFS:
		return engine.Query{Algo: algo, Sources: sources}, true
	default:
		return engine.Query{}, false
	}
}

// TestIntraWorkersStress hammers engines with mixed worker counts from
// many goroutines at once: inter-query concurrency (Batch worker pools)
// nested over intra-query parallelism, all against one structure, with
// every result compared to the serial reference. Primarily meaningful
// under -race, where any unsynchronized sharing inside the parallel layer
// (arena scratch, portal memo, circuit tables) fails the run.
func TestIntraWorkersStress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := shapes.RandomBlob(rng, 600)
	srcIdx := shapes.RandomSubset(rng, s, 4)
	sources := make([]amoebot.Coord, len(srcIdx))
	for i, idx := range srcIdx {
		sources[i] = s.Coord(idx)
	}
	q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}

	serial, err := engine.New(s, &engine.Config{Seed: 11, IntraWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Forest.MarshalText()
	// Only the engine's first query is charged the lazy election; compare
	// the election-free round count so every query is comparable.
	wantRounds := want.Stats.Rounds - want.Stats.Phases["preprocess"]

	// One engine per worker count, all alive at once, each queried from
	// several goroutines concurrently.
	engines := make([]*engine.Engine, 0, 3)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0) + 1} {
		e, err := engine.New(s, &engine.Config{Seed: 11, IntraWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	const goroutinesPerEngine = 4
	const queriesPerGoroutine = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(engines)*goroutinesPerEngine)
	for ei, e := range engines {
		for g := 0; g < goroutinesPerEngine; g++ {
			wg.Add(1)
			go func(ei int, e *engine.Engine) {
				defer wg.Done()
				for i := 0; i < queriesPerGoroutine; i++ {
					res, err := e.Run(q)
					if err != nil {
						errs <- fmt.Errorf("engine %d: %w", ei, err)
						return
					}
					got, _ := res.Forest.MarshalText()
					if !bytes.Equal(got, wantBytes) {
						errs <- fmt.Errorf("engine %d: forest diverges from serial reference", ei)
						return
					}
					if rounds := res.Stats.Rounds - res.Stats.Phases["preprocess"]; rounds != wantRounds {
						errs <- fmt.Errorf("engine %d: %d election-free rounds, want %d", ei, rounds, wantRounds)
						return
					}
				}
			}(ei, e)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
