package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/scenario"
)

// Sizes of the engine workloads (README.md gives the reasons). The
// structures are fixed; -seed draws the queries and the churn deltas.
const (
	blobN     = 16000 // forest-blob: random hole-free blob
	blobSeed  = 1
	forestSet = 24 // source sets per pass
	forestK   = 16 // sources per set

	batchRadius   = 130 // batch-51k: hexagon, n = 51,091
	batchPerPass  = 24
	batchSPT      = 4  // distinct spt sources per batch, each asked twice
	batchDests    = 64 // destinations shared by a batch's spt queries
	batchBFS      = 8  // bfs queries per batch, sources clustered in a disc
	batchVerified = 2  // queries verified per batch after the first

	churnRadius  = 100 // churn-30k: hexagon, n = 30,301
	churnChain   = 10  // non-empty churn steps per direction of travel
	churnSources = 8   // query sources the steps cycle through
)

// inputRNG derives the generator of one input item from the run seed.
func inputRNG(seed int64, item int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(item)))
}

// setupEngine builds the structure and a warmed engine (leader elected,
// every portal decomposition and view built) setups times and keeps the
// last; setup_s is the median over the builds, at the reference speed.
func (r *run) setupEngine(build func() *amoebot.Structure) (*engine.Engine, error) {
	r.ref = newRefKernel()
	var e *engine.Engine
	for i := 0; i < setups; i++ {
		e = nil
		runtime.GC()
		ref := r.ref.time()
		start := time.Now()
		var s *amoebot.Structure
		r.rec.time(-1, "amoebot.build", root, func() { s = build() })
		var err error
		r.rec.time(-1, "engine.new", root, func() { e, err = engine.New(s, &engine.Config{Seed: r.seed}) })
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		var st engine.Stats
		r.rec.time(-1, "leader.elect", root, func() { _, st = e.Leader() })
		r.rec.time(-1, "engine.warm", root, e.Warm)
		r.setupS = append(r.setupS, scale(time.Since(start), ref).Seconds())
		r.rec.add("leader.elect_rounds", float64(st.Rounds))
	}
	return e, nil
}

// verifyDests are the destinations an answer is checked against: the query's
// own, or every amoebot for the solvers that take none (sssp, bfs).
func verifyDests(q engine.Query, s *amoebot.Structure) []amoebot.Coord {
	if len(q.Dests) > 0 {
		return q.Dests
	}
	return s.Coords()
}

// sameCost reports whether a repeated query was charged exactly what its
// first answer was.
func sameCost(a, b engine.Stats) bool { return a.Rounds == b.Rounds && a.Beeps == b.Beeps }

// wavesPerPass is the achieved lane-packing factor of a set of answers.
func wavesPerPass(sts []engine.Stats) float64 {
	var waves, passes int64
	for _, st := range sts {
		waves += st.WavesPacked
		passes += st.LanePasses
	}
	if passes == 0 {
		return 0
	}
	return float64(waves) / float64(passes)
}

// runForest: forestSet seeded source sets of k = 16 on a fixed 16k-amoebot
// blob, every amoebot a destination, answered one Engine.Run at a time.
func runForest(r *run) error {
	e, err := r.setupEngine(func() *amoebot.Structure { return spforest.RandomBlob(blobSeed, blobN) })
	if err != nil {
		return err
	}
	s := e.Structure()
	all := s.Coords()
	queries := make([]engine.Query, forestSet)
	for i := range queries {
		queries[i] = engine.Query{Algo: engine.AlgoForest, Sources: spforest.RandomCoords(inputRNG(r.seed, i).Int63(), s, forestK), Dests: all}
	}
	first := make([]engine.Stats, len(queries))
	pass := func(k int) error {
		for i, q := range queries {
			op := r.nextOp()
			var res *engine.Result
			var err error
			r.timeOp(op, 1, func(o open) { res, err = runQuery(r, e, op, o, q) })
			r.attempted++
			switch {
			case err != nil:
				r.fail("query %d: %v", i, err)
			case k == 0:
				if err := untimed(func() error { return e.Verify(q.Sources, q.Dests, res.Forest) }); err != nil {
					r.fail("query %d: %v", i, err)
				}
				first[i] = res.Stats
				r.sim(k, res.Stats.Rounds, res.Stats.Beeps)
			case !sameCost(first[i], res.Stats):
				r.fail("pass %d query %d: %d rounds / %d beeps, pass 0 charged %d / %d",
					k, i, res.Stats.Rounds, res.Stats.Beeps, first[i].Rounds, first[i].Beeps)
			}
		}
		return nil
	}
	return r.measure(pass, func() error {
		r.layer["engine.waves_per_pass"] = wavesPerPass(first)
		for _, st := range first {
			r.rec.add("sim.forest_rounds", float64(st.Phases["forest"]))
		}
		return r.probeLayers(e, probeInput{sources: queries[0].Sources, spt: sptQuery(s, r.seed)}, true)
	})
}

func runQuery(r *run, e *engine.Engine, op int, parent open, q engine.Query) (*engine.Result, error) {
	o := r.rec.start(op, "engine.run", parent)
	defer r.rec.stop(o)
	return e.Run(q)
}

// sptQuery is the probes' single-source query: a seeded source and 64
// seeded destinations.
func sptQuery(s *amoebot.Structure, seed int64) engine.Query {
	rng := inputRNG(seed, -1)
	return engine.Query{
		Algo:    engine.AlgoSPT,
		Sources: spforest.RandomCoords(rng.Int63(), s, 1),
		Dests:   spforest.RandomCoords(rng.Int63(), s, batchDests),
	}
}

// batchQueries builds one seeded batch: batchSPT distinct spt sources, each
// asked twice, against one shared destination set (dedupe + grouped
// root-and-prune), then batchBFS single-source bfs queries from distinct
// cells of a radius-2 disc (one lane-packed MS-BFS group).
func batchQueries(s *amoebot.Structure, seed int64, b int) []engine.Query {
	rng := inputRNG(seed, b)
	dests := spforest.RandomCoords(rng.Int63(), s, batchDests)
	var qs []engine.Query
	for _, src := range spforest.RandomCoords(rng.Int63(), s, batchSPT) {
		q := engine.Query{Algo: engine.AlgoSPT, Sources: []amoebot.Coord{src}, Dests: dests}
		qs = append(qs, q, q)
	}
	centre := s.Coord(int32(rng.Intn(s.N())))
	for amoebot.XZ(0, 0).Dist(centre) > batchRadius-2 {
		centre = s.Coord(int32(rng.Intn(s.N())))
	}
	var disc []amoebot.Coord
	for x := centre.X - 4; x <= centre.X+4; x++ {
		for z := centre.Z - 2; z <= centre.Z+2; z++ {
			if c := amoebot.XZ(x, z); c.Dist(centre) <= 2 {
				disc = append(disc, c)
			}
		}
	}
	for _, i := range rng.Perm(len(disc))[:batchBFS] {
		qs = append(qs, engine.Query{Algo: engine.AlgoBFS, Sources: []amoebot.Coord{disc[i]}})
	}
	return qs
}

// runBatch: batchPerPass seeded 16-query Engine.Batch calls per pass on a radius-130
// hexagon.
func runBatch(r *run) error {
	e, err := r.setupEngine(func() *amoebot.Structure { return spforest.Hexagon(batchRadius) })
	if err != nil {
		return err
	}
	s := e.Structure()
	batches := make([][]engine.Query, batchPerPass)
	checked := make([]map[int]bool, batchPerPass)
	first := make([][]engine.Stats, batchPerPass)
	for b := range batches {
		batches[b] = batchQueries(s, r.seed, b)
		verified := inputRNG(r.seed, -2-b).Perm(len(batches[b]))
		if b > 0 {
			verified = verified[:batchVerified]
		}
		checked[b] = map[int]bool{}
		for _, i := range verified {
			checked[b][i] = true
		}
		first[b] = make([]engine.Stats, len(batches[b]))
	}
	var sptWaves, bfsWaves []engine.Stats
	pass := func(k int) error {
		for b, qs := range batches {
			op := r.nextOp()
			var res *engine.BatchResult
			r.timeOp(op, len(qs), func(o open) { r.rec.time(op, "engine.batch", o, func() { res = e.Batch(qs) }) })
			r.attempted += len(qs)
			r.batchLayers(qs, res)
			for i, qr := range res.Results {
				switch {
				case qr.Err != nil:
					r.fail("batch %d query %d: %v", b, i, qr.Err)
				case k == 0:
					if checked[b][i] {
						check := func() error { return e.Verify(qs[i].Sources, verifyDests(qs[i], s), qr.Result.Forest) }
						if err := untimed(check); err != nil {
							r.fail("batch %d query %d: %v", b, i, err)
						}
					}
					first[b][i] = qr.Result.Stats
					r.sim(k, qr.Result.Stats.Rounds, qr.Result.Stats.Beeps)
					if qs[i].Algo == engine.AlgoBFS {
						bfsWaves = append(bfsWaves, qr.Result.Stats)
					} else {
						sptWaves = append(sptWaves, qr.Result.Stats)
					}
				case !sameCost(first[b][i], qr.Result.Stats):
					r.fail("pass %d batch %d query %d: cost differs from pass 0", k, b, i)
				}
			}
		}
		return nil
	}
	spt := batches[0][0]
	return r.measure(pass, func() error {
		r.layer["engine.waves_per_pass"] = wavesPerPass(sptWaves)
		r.layer["engine.bfs_waves_per_pass"] = wavesPerPass(bfsWaves)
		if err := r.probeLayers(e, probeInput{sources: spforest.RandomCoords(r.seed, s, forestK), spt: spt}, true); err != nil {
			return err
		}
		if g := median(r.rec.samples["engine.spt_group_ms"]); g > 0 {
			r.layer["engine.share_gain"] = batchSPT * median(r.rec.samples["engine.spt_solo_ms"]) / g
		}
		return nil
	})
}

// batchLayers records a batch's sharing: the wall of its spt and bfs groups
// (every member of a group reports the group's wall), the time to fill each
// deduplicated copy, and the dedupe and grouping counters.
func (r *run) batchLayers(qs []engine.Query, res *engine.BatchResult) {
	if !r.rec.tracing {
		return
	}
	seen := map[string]bool{}
	group := map[string]time.Duration{}
	for i, qr := range res.Results {
		key := fmt.Sprint(qs[i])
		if seen[key] {
			r.rec.add("engine.dup_fill_ms", ms(qr.Wall))
			continue
		}
		seen[key] = true
		group[qs[i].Algo] = max(group[qs[i].Algo], qr.Wall)
	}
	r.rec.add("engine.spt_group_ms", ms(group[engine.AlgoSPT]))
	r.rec.add("engine.bfs_group_ms", ms(group[engine.AlgoBFS]))
	r.rec.add("engine.dedup_ratio", float64(res.Stats.Deduped)/float64(res.Stats.Queries))
	r.rec.add("engine.groups", float64(res.Stats.Groups))
}

// runChurn: a moving structure. A pass replays six chains of churnChain
// non-empty seeded translate-front deltas, each from the set-up engine. Each
// step applies its delta with Engine.Apply and answers an spsp query from one
// of churnSources seeded sources to the leader on the derived engine; the
// leader and the sources are never removed. The chains are generated once,
// before any pass.
func runChurn(r *run) error {
	e0, err := r.setupEngine(func() *amoebot.Structure { return spforest.Hexagon(churnRadius) })
	if err != nil {
		return err
	}
	s := e0.Structure()
	ldr, _ := e0.Leader()
	var queries []engine.Query
	protect := []amoebot.Coord{ldr}
	for _, src := range spforest.RandomCoords(inputRNG(r.seed, 0).Int63(), s, churnSources+1) {
		if src != ldr && len(queries) < churnSources {
			queries = append(queries, engine.Query{Algo: engine.AlgoSPSP, Sources: []amoebot.Coord{src}, Dests: []amoebot.Coord{ldr}})
			protect = append(protect, src)
		}
	}
	// The translate profile moves the structure the way its seed selects
	// (seed mod 6), and the six directions cost differently, so every run
	// takes one chain in each.
	chains := make([][]amoebot.Delta, amoebot.NumDirections)
	for dir := range chains {
		churn := scenario.Workloads()["translate"]
		churn.Seed += int64(len(chains))*r.seed + int64(dir)
		churn.Steps = 1 << 30
		steps, err := churn.Stepper(s, protect...)
		if err != nil {
			return err
		}
		for len(chains[dir]) < churnChain {
			d, _, _, err := steps.Next()
			if err != nil {
				return fmt.Errorf("churn input: %w", err)
			}
			if !d.IsEmpty() {
				chains[dir] = append(chains[dir], d)
			}
		}
	}
	first := make([]engine.Stats, len(chains)*churnChain)
	var patched, rebuilt int64
	e := e0
	pass := func(k int) error {
		i := -1
		for _, chain := range chains {
			e = e0
			for _, d := range chain {
				i++
				op := r.nextOp()
				q := queries[i%len(queries)]
				var ne *engine.Engine
				var res *engine.Result
				var applyErr, queryErr error
				r.timeOp(op, 1, func(o open) {
					r.rec.time(op, "engine.apply", o, func() { ne, applyErr = e.Apply(d) })
					if applyErr == nil {
						res, queryErr = runQuery(r, ne, op, o, q)
					}
				})
				r.attempted++
				if applyErr != nil {
					// The rest of the chain applies to a structure this step
					// did not produce.
					return fmt.Errorf("pass %d step %d: apply: %w", k, i, applyErr)
				}
				if r.rec.tracing {
					// The Structure.Apply probe on the step's own delta.
					prev := e.Structure()
					untimed(func() error {
						r.rec.time(-1, "amoebot.apply", root, func() { prev.Apply(d) })
						return nil
					})
					r.rec.add("amoebot.delta_cells", float64(d.Size()))
					cs := ne.CacheStats()
					patched += cs.PortalsPatched
					rebuilt += cs.PortalsRebuilt
				}
				switch {
				case queryErr != nil:
					r.fail("pass %d step %d: %v", k, i, queryErr)
				case k == 0:
					if err := untimed(func() error { return ne.Verify(q.Sources, q.Dests, res.Forest) }); err != nil {
						r.fail("step %d: %v", i, err)
					}
					first[i] = res.Stats
					r.sim(k, res.Stats.Rounds, res.Stats.Beeps)
				case !sameCost(first[i], res.Stats):
					r.fail("pass %d step %d: %d rounds / %d beeps, pass 0 charged %d / %d",
						k, i, res.Stats.Rounds, res.Stats.Beeps, first[i].Rounds, first[i].Beeps)
				}
				e = ne
			}
		}
		return nil
	}
	return r.measure(pass, func() error {
		if patched+rebuilt > 0 {
			r.layer["engine.patch_ratio"] = float64(patched) / float64(patched+rebuilt)
		}
		cur := e.Structure()
		return r.probeLayers(e, probeInput{sources: spforest.RandomCoords(r.seed, cur, forestK), spt: sptQuery(cur, r.seed)}, false)
	})
}
