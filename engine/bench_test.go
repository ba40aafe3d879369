package engine_test

import (
	"math/rand"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/shapes"
)

// BenchmarkAmortization measures the engine's amortization win on the
// repeated-query hot path: N identical forest queries against one
// structure. The legacy free function re-validates the structure, rebuilds
// the whole-structure region and re-elects a leader on every call; the
// engine pays all of that once. Both sub-benchmarks report the simulated
// rounds per query next to the wall time per query.
func BenchmarkAmortization(b *testing.B) {
	s := spforest.RandomBlob(9, 2000)
	sources := spforest.RandomCoords(2, s, 8)
	dests := s.Coords()

	b.Run("legacy", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := spforest.ShortestPathForest(s, sources, dests, nil)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("engine", func(b *testing.B) {
		e, err := engine.New(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		e.Leader() // pre-pay the election, like a server would at bind time
		q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: dests}
		b.ResetTimer()
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := e.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkBatchThroughput measures Batch fan-out against sequential Run
// on a mixed workload, the shape a query service would see.
func BenchmarkBatchThroughput(b *testing.B) {
	s := spforest.RandomBlob(11, 1000)
	var queries []engine.Query
	for i := 0; i < 16; i++ {
		src := spforest.RandomCoords(int64(i), s, 1+i%4)
		switch i % 3 {
		case 0:
			queries = append(queries, engine.Query{Algo: engine.AlgoForest, Sources: src, Dests: s.Coords()})
		case 1:
			queries = append(queries, engine.Query{Algo: engine.AlgoSSSP, Sources: src[:1]})
		case 2:
			queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: src})
		}
	}
	b.Run("sequential", func(b *testing.B) {
		e, err := engine.New(s, &engine.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batch := e.Batch(queries); batch.Stats.Failed > 0 {
				b.Fatal("query failed")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		e, err := engine.New(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batch := e.Batch(queries); batch.Stats.Failed > 0 {
				b.Fatal("query failed")
			}
		}
	})
}

// translateChains returns a warmed Hexagon(100) engine and, for each of
// the six directions, a 10-step chain of translate-front deltas from its
// structure: the bench's churn-30k steps, without their queries.
func translateChains(tb testing.TB) (*engine.Engine, [amoebot.NumDirections][]amoebot.Delta) {
	s := shapes.Hexagon(100)
	e0, err := engine.New(s, &engine.Config{Seed: 1, IntraWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	e0.Warm()
	ldr, _ := e0.Leader()
	rng := rand.New(rand.NewSource(7))
	var chains [amoebot.NumDirections][]amoebot.Delta
	for dir := range chains {
		for cur := s; len(chains[dir]) < 10; {
			d := shapes.DirectedDelta(rng, cur, amoebot.Direction(dir), 6, 6, false, ldr)
			if cur, err = cur.Apply(d); err != nil {
				tb.Fatal(err)
			}
			chains[dir] = append(chains[dir], d)
		}
	}
	return e0, chains
}

// BenchmarkApplyTranslate measures one churn step's Engine.Apply along
// the translateChains, each step applied to the engine the one before
// derived.
func BenchmarkApplyTranslate(b *testing.B) {
	e0, chains := translateChains(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		for _, chain := range chains {
			e := e0
			for _, d := range chain {
				var err error
				if e, err = e.Apply(d); err != nil {
					b.Fatal(err)
				}
				if i++; i == b.N {
					return
				}
			}
		}
	}
}
