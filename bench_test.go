// Benchmarks: one per experiment of the per-experiment index (DESIGN.md §4,
// EXPERIMENTS.md). Each benchmark reports, besides wall time, the simulated
// synchronous round count as the custom metric "rounds" — the quantity the
// paper's theorems bound. Regenerate every table with
//
//	go test -bench=. -benchmem
//
// or with the richer sweep driver: go run ./cmd/spfbench.
//
// The query benchmarks (E1–E5, E9) run through a shared engine.Engine, so
// the measured loop is the repeated-query hot path: per-structure
// preprocessing (validation, region construction, leader election) is paid
// once outside the loop. The one-shot free functions are benchmarked
// separately in engine/bench_test.go (BenchmarkAmortization).
package spforest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/baseline"
	"spforest/internal/core"
	"spforest/internal/dense"
	"spforest/internal/ett"
	"spforest/internal/leader"
	"spforest/internal/par"
	"spforest/internal/pasc"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
)

// reportRounds attaches the simulated round count to the benchmark output.
func reportRounds(b *testing.B, rounds int64) {
	b.ReportMetric(float64(rounds), "rounds")
}

// coreEnv is the environment of the benchmarks that call the core
// algorithms directly: GOMAXPROCS workers over the shared arena.
func coreEnv() *core.Env { return core.NewEnv(par.New(0, dense.Shared), nil) }

// mustEngine binds a benchmark engine, failing the benchmark on error.
func mustEngine(b *testing.B, s *amoebot.Structure, cfg *engine.Config) *engine.Engine {
	b.Helper()
	e, err := engine.New(s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkE1_SPTvsL: Theorem 39, O(log ℓ) rounds for (1,ℓ)-SPF.
func BenchmarkE1_SPTvsL(b *testing.B) {
	s := spforest.Hexagon(32)
	eng := mustEngine(b, s, nil)
	for _, l := range []int{1, 16, 256, 2048} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			q := engine.Query{
				Algo:    engine.AlgoSPT,
				Sources: []amoebot.Coord{amoebot.XZ(-32, 0)},
				Dests:   spforest.RandomCoords(int64(l), s, l),
			}
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			reportRounds(b, rounds)
		})
	}
}

// BenchmarkE2_SPSPvsN: §1.3, O(1) rounds for SPSP regardless of n.
func BenchmarkE2_SPSPvsN(b *testing.B) {
	for _, r := range []int{8, 32, 128} {
		s := spforest.Hexagon(r)
		eng := mustEngine(b, s, nil)
		b.Run(fmt.Sprintf("n=%d", s.N()), func(b *testing.B) {
			q := engine.Query{
				Algo:    engine.AlgoSPSP,
				Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
				Dests:   []amoebot.Coord{amoebot.XZ(r, 0)},
			}
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			reportRounds(b, rounds)
		})
	}
}

// BenchmarkE3_SSSPvsN: §1.3, O(log n) rounds for SSSP.
func BenchmarkE3_SSSPvsN(b *testing.B) {
	for _, r := range []int{8, 32, 128} {
		s := spforest.Hexagon(r)
		eng := mustEngine(b, s, nil)
		b.Run(fmt.Sprintf("n=%d", s.N()), func(b *testing.B) {
			q := engine.Query{
				Algo:    engine.AlgoSSSP,
				Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
			}
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			reportRounds(b, rounds)
		})
	}
}

// BenchmarkE4_ForestVsK: Theorem 56, O(log n log² k) rounds.
func BenchmarkE4_ForestVsK(b *testing.B) {
	s := spforest.RandomBlob(5, 4000)
	for _, k := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sources := spforest.RandomCoords(int64(k), s, k)
			eng := mustEngine(b, s, &engine.Config{Leader: &sources[0]})
			q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			reportRounds(b, rounds)
		})
	}
}

// BenchmarkE5_ForestVsN: Theorem 56 at fixed k, from random blobs up to
// the 10⁶-amoebot hexagon of E17/E20, which only its own run builds:
//
//	go test -run NONE -bench 'E5_ForestVsN/n=1000519' -benchtime 3x -cpu 1 -benchmem .
func BenchmarkE5_ForestVsN(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		s := spforest.RandomBlob(int64(n), n)
		b.Run(fmt.Sprintf("n=%d", s.N()), func(b *testing.B) { benchForest(b, s) })
	}
	const r = 577 // Hexagon(r) holds 1 + 3r(r+1) amoebots
	b.Run(fmt.Sprintf("n=%d", 1+3*r*(r+1)), func(b *testing.B) { benchForest(b, spforest.Hexagon(r)) })
}

// benchForest times k = 16 forest queries on s after one untimed query,
// which warms the engine's portal memo and scratch.
func benchForest(b *testing.B, s *amoebot.Structure) {
	sources := spforest.RandomCoords(7, s, 16)
	eng := mustEngine(b, s, &engine.Config{Leader: &sources[0]})
	q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}
	if _, err := eng.Run(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	reportRounds(b, rounds)
}

// BenchmarkE6_Primitives: Lemmas 20/21/23/31 on abstract trees.
func BenchmarkE6_Primitives(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(17))
	nbrs := make([][]int32, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		nbrs[p] = append(nbrs[p], int32(i))
		nbrs[i] = append(nbrs[i], int32(p))
	}
	tree := ett.MustTree(nbrs)
	inQ := make([]bool, n)
	for _, i := range rng.Perm(n)[:64] {
		inQ[i] = true
	}
	b.Run("rootprune/q=64", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			treeprim.RootAndPrune(&clock, tree, 0, inQ)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("election/q=64", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			treeprim.Elect(&clock, ett.BuildTour(tree, 0), inQ)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("centroid/q=64", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			treeprim.Centroids(&clock, tree, 0, inQ)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("decomposition/q=64", func(b *testing.B) {
		var c0 sim.Clock
		rp := treeprim.RootAndPrune(&c0, tree, 0, inQ)
		aq := treeprim.Augmentation(rp)
		qp := make([]bool, n)
		for i := range qp {
			qp[i] = inQ[i] || aq[i]
		}
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			treeprim.Decompose(&clock, tree, 0, qp)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
}

// BenchmarkE7_PortalPrimitives: Lemmas 33/35/36/37 on implicit portal trees.
func BenchmarkE7_PortalPrimitives(b *testing.B) {
	s := spforest.RandomBlob(23, 4000)
	ports := portal.Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	view := ports.WholeView()
	rng := rand.New(rand.NewSource(29))
	inQ := make([]bool, ports.Len())
	q := 32
	if q > ports.Len() {
		q = ports.Len()
	}
	for _, i := range rng.Perm(ports.Len())[:q] {
		inQ[i] = true
	}
	b.Run("rootprune", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			portal.RootPrune(&clock, view, 0, inQ)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	// The election returns at once when its root portal is in Q, so it is
	// rooted outside Q; with Q empty it walks the whole tour.
	electRoot := int32(0)
	for inQ[electRoot] {
		electRoot++
	}
	for _, c := range []struct {
		name string
		inQ  []bool
	}{{"election", inQ}, {"election-emptyQ", make([]bool, ports.Len())}} {
		b.Run(c.name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				var clock sim.Clock
				portal.ElectPortal(&clock, view, electRoot, c.inQ)
				rounds = clock.Rounds()
			}
			reportRounds(b, rounds)
		})
	}
	b.Run("centroid", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			portal.Centroids(&clock, view, 0, inQ)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("decomposition", func(b *testing.B) {
		var c0 sim.Clock
		rp := portal.RootPrune(&c0, view, 0, inQ)
		aq := portal.Augment(&c0, view, rp)
		qp := make([]bool, ports.Len())
		for i := range qp {
			qp[i] = inQ[i] || aq[i]
		}
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			portal.Decompose(&clock, view, 0, qp)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
}

// BenchmarkE8_Subroutines: Lemmas 40/42/50.
func BenchmarkE8_Subroutines(b *testing.B) {
	const n = 4096
	b.Run("line", func(b *testing.B) {
		s := shapes.Line(n)
		chain := make([]int32, n)
		for i := range chain {
			chain[i] = int32(i)
		}
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.LineForestEnv(coreEnv(), &clock, s, chain, []int32{0, n - 1})
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("merge", func(b *testing.B) {
		s := shapes.Parallelogram(64, 64)
		r := amoebot.WholeRegion(s)
		var build sim.Clock
		a, _ := s.Index(amoebot.XZ(0, 0))
		c, _ := s.Index(amoebot.XZ(63, 63))
		f1 := core.SPTEnv(coreEnv(), &build, r, a, r.Nodes())
		f2 := core.SPTEnv(coreEnv(), &build, r, c, r.Nodes())
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.MergeEnv(coreEnv(), &clock, f1, f2)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("propagate", func(b *testing.B) {
		s := shapes.Parallelogram(64, 64)
		r := amoebot.WholeRegion(s)
		ports := portal.Compute(r, amoebot.AxisX)
		mid := ports.NodesOf(32)
		var apNodes []int32
		for i := int32(0); i < int32(s.N()); i++ {
			if s.Coord(i).Z <= 32 {
				apNodes = append(apNodes, i)
			}
		}
		ap := amoebot.NewRegion(s, apNodes)
		var bc sim.Clock
		a, _ := s.Index(amoebot.XZ(0, 0))
		f := baseline.BFSForestExec(nil, &bc, ap, []int32{a})
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.PropagateEnv(coreEnv(), &clock, r, mid, f, amoebot.SideB)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
}

// BenchmarkE9_Baselines: the crossover instruments — BFS wavefront on a
// long comb vs the SPT, and the sequential merge vs divide & conquer.
func BenchmarkE9_Baselines(b *testing.B) {
	comb := spforest.Comb(16, 400)
	src, _ := comb.Index(amoebot.XZ(0, 400))
	dst, _ := comb.Index(amoebot.XZ(30, 400))
	b.Run("comb/spt", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.SPTEnv(coreEnv(), &clock, amoebot.WholeRegion(comb), src, []int32{dst})
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("comb/bfs", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			baseline.BFSForestExec(nil, &clock, amoebot.WholeRegion(comb), []int32{src})
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	blob := spforest.RandomBlob(5, 4000)
	sources := spforest.RandomCoords(32, blob, 32)
	eng := mustEngine(b, blob, &engine.Config{Leader: &sources[0]})
	b.Run("k32/dnc", func(b *testing.B) {
		q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: blob.Coords()}
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := eng.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		reportRounds(b, rounds)
	})
	b.Run("k32/sequential", func(b *testing.B) {
		q := engine.Query{Algo: engine.AlgoSequential, Sources: sources, Dests: blob.Coords()}
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := eng.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		reportRounds(b, rounds)
	})
}

// BenchmarkE10_PortalStructure: Lemma 9/11 machinery (portal computation
// over all three axes).
func BenchmarkE10_PortalStructure(b *testing.B) {
	s := spforest.RandomBlob(31, 8000)
	r := amoebot.WholeRegion(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := portal.Compute(r, axis)
			if !p.IsPortalGraphTree() {
				b.Fatal("portal graph not a tree")
			}
		}
	}
}

// BenchmarkE11_Leader: Theorem 2, Θ(log n) w.h.p.
func BenchmarkE11_Leader(b *testing.B) {
	for _, r := range []int{8, 32, 128} {
		s := spforest.Hexagon(r)
		region := amoebot.WholeRegion(s)
		b.Run(fmt.Sprintf("n=%d", s.N()), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var rounds int64
			for i := 0; i < b.N; i++ {
				var clock sim.Clock
				leader.Elect(&clock, region, rng)
				rounds += clock.Rounds()
			}
			reportRounds(b, rounds/int64(b.N))
		})
	}
}

// BenchmarkE12_PASC: Lemma 4 (2 rounds/iteration) and Corollary 6.
func BenchmarkE12_PASC(b *testing.B) {
	for _, m := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("chain/m=%d", m), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				var clock sim.Clock
				pasc.Collect(&clock, pasc.NewChainDistance(m))
				rounds = clock.Rounds()
			}
			reportRounds(b, rounds)
		})
	}
	b.Run("prefix/m=65536/W=16", func(b *testing.B) {
		weights := make([]bool, 65536)
		for i := 0; i < 16; i++ {
			weights[i*4096] = true
		}
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			pasc.Collect(&clock, pasc.NewPrefixSum(weights))
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
}

// BenchmarkE13_Ablation: the merge schedule ablation — the paper's
// centroid-decomposition schedule (O(log k) levels) against a plain
// bottom-up portal-tree walk (Θ(k) levels) on a path-like portal tree.
func BenchmarkE13_Ablation(b *testing.B) {
	s := shapes.Staircase(32, 6, 3)
	region := amoebot.WholeRegion(s)
	sources := shapes.RandomSubset(rand.New(rand.NewSource(32)), s, 32)
	b.Run("centroid", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.ForestEnv(coreEnv(), &clock, region, sources, region.Nodes(), sources[0], core.ScheduleCentroid)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
	b.Run("bottom-up", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var clock sim.Clock
			core.ForestEnv(coreEnv(), &clock, region, sources, region.Nodes(),
				sources[0], core.ScheduleTreeDepth)
			rounds = clock.Rounds()
		}
		reportRounds(b, rounds)
	})
}
