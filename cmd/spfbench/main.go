// Command spfbench regenerates every experiment table of EXPERIMENTS.md:
// one table per quantitative claim of the paper plus the E14/E18
// dynamic-churn workloads (see DESIGN.md §4 for the per-experiment index
// E1–E20). Usage:
//
//	spfbench              # run everything
//	spfbench -run E4      # run tables whose id contains "E4"
//	spfbench -quick       # smaller sweeps
//	spfbench -json        # machine-readable per-experiment records
//	spfbench -churn grow  # E18: churn profile driving the delta stream
//
// With -json the human-readable tables are suppressed and a JSON array of
// records — one per measured data point plus one "total" record per
// experiment — is written to stdout, each with the simulated rounds and
// beeps and the host wall time. This is the format BENCH_*.json trajectory
// points are captured from.
//
// The query experiments (E1–E5, E9) run through the engine sub-package.
// E1 and E9 bind one engine per structure and reuse it across queries; E4
// and E5 re-bind per sweep point because each point designates a different
// leader (sources[0] of that point's source set).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

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
	"spforest/internal/scenario"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
	"spforest/internal/verify"
	"spforest/service"
)

var (
	runFilter  = flag.String("run", "", "only run experiments whose id contains this substring")
	quick      = flag.Bool("quick", false, "smaller parameter sweeps")
	jsonOut    = flag.Bool("json", false, "emit machine-readable JSON records instead of tables")
	scenarios  = flag.String("scenarios", "", "E15: only sweep registry scenarios whose name contains this substring")
	churnProf  = flag.String("churn", "steady", "E18: churn workload profile driving the delta stream (see internal/scenario.Workloads)")
	intra      = flag.Int("intra-workers", 0, "intra-query parallelism for every engine (1 = serial per query, 0 = GOMAXPROCS); rounds/beeps are identical at every setting")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
)

// record is one measured data point in -json mode.
type record struct {
	Experiment string           `json:"experiment"`
	Label      string           `json:"label"`
	Params     map[string]int64 `json:"params,omitempty"`
	Rounds     int64            `json:"rounds"`
	Beeps      int64            `json:"beeps"`
	WallNS     int64            `json:"wall_ns"`
}

var (
	curExp  string // experiment id currently running (set by main's loop)
	records []record
)

// emit appends one -json record for the current experiment.
func emit(label string, params map[string]int64, rounds, beeps int64, wall time.Duration) {
	records = append(records, record{
		Experiment: curExp,
		Label:      label,
		Params:     params,
		Rounds:     rounds,
		Beeps:      beeps,
		WallNS:     wall.Nanoseconds(),
	})
}

// printf writes table output, suppressed in -json mode.
func printf(format string, args ...any) {
	if !*jsonOut {
		fmt.Printf(format, args...)
	}
}

// runQ answers one query on the engine, recording a -json data point.
func runQ(e *engine.Engine, q engine.Query, label string, params map[string]int64) *spforest.Result {
	start := time.Now()
	res, err := e.Run(q)
	die(err)
	emit(label, params, res.Stats.Rounds, res.Stats.Beeps, time.Since(start))
	return res
}

func main() {
	flag.Parse()
	defer flushProfiles() // normal exit; die() flushes on the failure path
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		die(err)
		die(pprof.StartCPUProfile(f))
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopCPUProfile = nil
		}
	}
	experiments := []struct {
		id, title string
		fn        func()
	}{
		{"E1", "SPT rounds vs ℓ (Theorem 39: O(log ℓ))", e1},
		{"E2", "SPSP rounds vs n (§1.3: O(1))", e2},
		{"E3", "SSSP rounds vs n (§1.3: O(log n))", e3},
		{"E4", "forest rounds vs k (Theorem 56: O(log n log² k)) + sequential baseline", e4},
		{"E5", "forest rounds vs n at fixed k (Theorem 56)", e5},
		{"E6", "tree primitives vs |Q| (Lemmas 20/21/23/31)", e6},
		{"E7", "portal primitives vs |Q| (Lemmas 33/35/36/37)", e7},
		{"E8", "line / merging / propagation vs n (Lemmas 40/42/50)", e8},
		{"E9", "baseline crossovers: BFS wavefront and sequential merge", e9},
		{"E10", "portal-graph structure (Lemmas 9/11): property counts", e10},
		{"E11", "leader election rounds vs n (Theorem 2: Θ(log n) w.h.p.)", e11},
		{"E12", "PASC iterations (Lemma 4, Corollaries 5/6)", e12},
		{"E13", "ablation: centroid-decomposition merge schedule vs plain bottom-up", e13},
		{"E14", "dynamic churn: fresh rebuild vs incremental Apply vs pooled service", e14},
		{"E15", "scenario registry sweep: per-scenario per-solver rounds", e15},
		{"E16", "intra-query parallelism: wall-time scaling vs IntraWorkers", e16},
		{"E17", "cross-query sharing: Batch vs a solo query loop at n ≥ 10⁶", e17},
		{"E18", "incremental preprocessing: patched Apply+Warm vs fresh rebuild under churn at n ≥ 10⁶", e18},
		{"E20", "intra-query wave sharing: lane-packed vs per-source multi-source bfs", e20},
	}
	for _, e := range experiments {
		if *runFilter != "" && !strings.Contains(e.id, *runFilter) {
			continue
		}
		curExp = e.id
		printf("== %s: %s\n", e.id, e.title)
		start := time.Now()
		e.fn()
		emit("total", nil, 0, 0, time.Since(start))
		printf("\n")
	}
	flushJSON()
}

// stopCPUProfile finalizes the in-flight CPU profile; set iff -cpuprofile
// is active. die() calls flushProfiles so a failing run still leaves
// usable profiles (os.Exit skips the deferred call).
var stopCPUProfile func()

func flushProfiles() {
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spfbench:", err)
			return
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spfbench:", err)
		}
		f.Close()
		*memProfile = "" // written once
	}
}

// flushJSON writes the collected records in -json mode; die calls it too,
// so a failing experiment still emits every data point measured so far.
func flushJSON() {
	if !*jsonOut {
		return
	}
	if records == nil {
		records = []record{} // encode an empty run as [], not null
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "spfbench:", err)
		os.Exit(1)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spfbench:", err)
		flushJSON()
		flushProfiles()
		os.Exit(1)
	}
}

func mustEngine(s *amoebot.Structure, cfg *engine.Config) *engine.Engine {
	if cfg == nil {
		cfg = &engine.Config{}
	}
	if cfg.IntraWorkers == 0 {
		cfg.IntraWorkers = *intra
	}
	e, err := engine.New(s, cfg)
	die(err)
	return e
}

// coreEnv is the execution environment of the experiments that call the
// core algorithms directly: the -intra-workers budget mustEngine gives
// every engine, over the process-wide shared arena.
func coreEnv() *core.Env { return core.NewEnv(par.New(*intra, dense.Shared), nil) }

func hexRadii() []int {
	if *quick {
		return []int{8, 16, 32}
	}
	return []int{8, 16, 32, 64, 128}
}

func e1() {
	r := 64
	if *quick {
		r = 32
	}
	s := spforest.Hexagon(r)
	eng := mustEngine(s, nil)
	printf("hexagon n=%d fixed; random destination sets\n", s.N())
	printf("      ℓ   rounds   log2(ℓ+1)\n")
	sweep := []int{1, 4, 16, 64, 256, 1024, 4096}
	for _, l := range sweep {
		if l > s.N() {
			break
		}
		dests := spforest.RandomCoords(int64(l), s, l)
		res := runQ(eng, engine.Query{
			Algo:    engine.AlgoSPT,
			Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
			Dests:   dests,
		}, "spt", map[string]int64{"n": int64(s.N()), "l": int64(l)})
		printf("%7d %8d %11.1f\n", l, res.Stats.Rounds, math.Log2(float64(l+1)))
	}
}

func e2() {
	printf("     n     diam   rounds\n")
	for _, r := range hexRadii() {
		s := spforest.Hexagon(r)
		eng := mustEngine(s, nil)
		res := runQ(eng, engine.Query{
			Algo:    engine.AlgoSPSP,
			Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
			Dests:   []amoebot.Coord{amoebot.XZ(r, 0)},
		}, "spsp", map[string]int64{"n": int64(s.N()), "diam": int64(2 * r)})
		printf("%6d %8d %8d\n", s.N(), 2*r, res.Stats.Rounds)
	}
}

func e3() {
	printf("     n   rounds   log2(n)\n")
	for _, r := range hexRadii() {
		s := spforest.Hexagon(r)
		eng := mustEngine(s, nil)
		res := runQ(eng, engine.Query{
			Algo:    engine.AlgoSSSP,
			Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
		}, "sssp", map[string]int64{"n": int64(s.N())})
		printf("%6d %8d %9.1f\n", s.N(), res.Stats.Rounds, math.Log2(float64(s.N())))
	}
}

// forestOn runs the divide-and-conquer forest and the sequential baseline
// on one shared engine (structure validated once, leader given).
func forestOn(s *amoebot.Structure, k int, seed int64) (dnc, seq int64) {
	sources := spforest.RandomCoords(seed, s, k)
	eng := mustEngine(s, &engine.Config{Leader: &sources[0]})
	params := map[string]int64{"n": int64(s.N()), "k": int64(k)}
	res := runQ(eng, engine.Query{
		Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords(),
	}, "forest", params)
	sq := runQ(eng, engine.Query{
		Algo: engine.AlgoSequential, Sources: sources, Dests: s.Coords(),
	}, "sequential", params)
	return res.Stats.Rounds, sq.Stats.Rounds
}

func e4() {
	n := 8000
	if *quick {
		n = 2000
	}
	s := spforest.RandomBlob(5, n)
	printf("random blob n=%d fixed; ℓ=n\n", s.N())
	printf("     k   D&C rounds   sequential   log n·log²k\n")
	ks := []int{2, 4, 8, 16, 32, 64, 128, 256}
	if *quick {
		ks = []int{2, 4, 8, 16, 32}
	}
	logn := math.Log2(float64(s.N()))
	for _, k := range ks {
		dnc, seq := forestOn(s, k, int64(k))
		lk := math.Log2(float64(k))
		printf("%6d %12d %12d %13.0f\n", k, dnc, seq, logn*lk*lk)
	}
}

func e5() {
	printf("      n   D&C rounds (k=16)   log n·log²k\n")
	ns := []int{500, 1000, 2000, 4000, 8000, 16000, 32000}
	if *quick {
		ns = []int{500, 1000, 2000, 4000}
	}
	for _, n := range ns {
		s := shapes.RandomBlob(rand.New(rand.NewSource(int64(n))), n)
		sources := spforest.RandomCoords(7, s, 16)
		eng := mustEngine(s, &engine.Config{Leader: &sources[0]})
		res := runQ(eng, engine.Query{
			Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords(),
		}, "forest", map[string]int64{"n": int64(s.N()), "k": 16})
		printf("%7d %19d %13.0f\n", s.N(), res.Stats.Rounds, math.Log2(float64(s.N()))*16)
	}
}

func e6() {
	n := 4096
	if *quick {
		n = 1024
	}
	rng := rand.New(rand.NewSource(17))
	nbrs := make([][]int32, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		nbrs[p] = append(nbrs[p], int32(i))
		nbrs[i] = append(nbrs[i], int32(p))
	}
	tree := ett.MustTree(nbrs)
	printf("random tree n=%d\n", n)
	printf("    |Q|   root&prune   election   centroid   decomposition   2(⌊log|Q|⌋+1)\n")
	for _, q := range []int{1, 4, 16, 64, 256, 1024} {
		inQ := make([]bool, n)
		for _, i := range rng.Perm(n)[:q] {
			inQ[i] = true
		}
		start := time.Now()
		var c1, c2, c3, c4 sim.Clock
		rp := treeprim.RootAndPrune(&c1, tree, 0, inQ)
		treeprim.Elect(&c2, ett.BuildTour(tree, 0), inQ)
		treeprim.Centroids(&c3, tree, 0, inQ)
		aq := treeprim.Augmentation(rp)
		qp := make([]bool, n)
		for i := range qp {
			qp[i] = inQ[i] || aq[i]
		}
		treeprim.Decompose(&c4, tree, 0, qp)
		emit("primitives", map[string]int64{"n": int64(n), "q": int64(q)},
			c1.Rounds()+c2.Rounds()+c3.Rounds()+c4.Rounds(),
			c1.Beeps()+c2.Beeps()+c3.Beeps()+c4.Beeps(), time.Since(start))
		printf("%7d %12d %10d %10d %15d %15d\n",
			q, c1.Rounds(), c2.Rounds(), c3.Rounds(), c4.Rounds(), 2*bits.Len(uint(q)))
	}
}

func e7() {
	n := 4000
	if *quick {
		n = 1000
	}
	s := shapes.RandomBlob(rand.New(rand.NewSource(23)), n)
	ports := portal.Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	view := ports.WholeView()
	rng := rand.New(rand.NewSource(29))
	printf("random blob n=%d, %d x-portals\n", s.N(), ports.Len())
	printf("    |Q|   root&prune   election   centroid   decomposition\n")
	for _, q := range []int{1, 4, 16, 64, 256} {
		if q > ports.Len() {
			break
		}
		inQ := make([]bool, ports.Len())
		for _, i := range rng.Perm(ports.Len())[:q] {
			inQ[i] = true
		}
		start := time.Now()
		var c1, c2, c3, c4 sim.Clock
		rp := portal.RootPrune(&c1, view, 0, inQ)
		portal.ElectPortal(&c2, view, 0, inQ)
		portal.Centroids(&c3, view, 0, inQ)
		aq := portal.Augment(&c1, view, rp)
		qp := make([]bool, ports.Len())
		for i := range qp {
			qp[i] = inQ[i] || aq[i]
		}
		portal.Decompose(&c4, view, 0, qp)
		emit("portal-primitives", map[string]int64{"n": int64(s.N()), "q": int64(q)},
			c1.Rounds()+c2.Rounds()+c3.Rounds()+c4.Rounds(),
			c1.Beeps()+c2.Beeps()+c3.Beeps()+c4.Beeps(), time.Since(start))
		printf("%7d %12d %10d %10d %15d\n", q, c1.Rounds(), c2.Rounds(), c3.Rounds(), c4.Rounds())
	}
}

func e8() {
	printf("      n   line(k=2)   merge   propagate   2(⌊log n⌋+1)\n")
	ns := []int{256, 1024, 4096, 16384}
	if *quick {
		ns = []int{256, 1024}
	}
	for _, n := range ns {
		start := time.Now()
		// Line algorithm on a chain with two sources at the ends.
		s := shapes.Line(n)
		chain := make([]int32, n)
		for i := range chain {
			chain[i] = int32(i)
		}
		env := coreEnv()
		var cl sim.Clock
		core.LineForestEnv(env, &cl, s, chain, []int32{0, int32(n - 1)})

		// Merge of two SSSP trees on a square parallelogram.
		side := int(math.Sqrt(float64(n)))
		ps := shapes.Parallelogram(side, side)
		r := amoebot.WholeRegion(ps)
		var build sim.Clock
		a, _ := ps.Index(amoebot.XZ(0, 0))
		b, _ := ps.Index(amoebot.XZ(side-1, side-1))
		f1 := core.SPTEnv(env, &build, r, a, r.Nodes())
		f2 := core.SPTEnv(env, &build, r, b, r.Nodes())
		var cm sim.Clock
		core.MergeEnv(env, &cm, f1, f2)

		// Propagation from the middle portal of the parallelogram.
		ports := portal.Compute(r, amoebot.AxisX)
		mid := ports.NodesOf(int32(side / 2))
		inP := map[int32]bool{}
		for _, p := range mid {
			inP[p] = true
		}
		var apNodes []int32
		for i := int32(0); i < int32(ps.N()); i++ {
			if ps.Coord(i).Z <= side/2 {
				apNodes = append(apNodes, i)
			}
		}
		ap := amoebot.NewRegion(ps, apNodes)
		var bb sim.Clock
		fp := baseline.BFSForestExec(nil, &bb, ap, []int32{a})
		var cp sim.Clock
		core.PropagateEnv(env, &cp, r, mid, fp, amoebot.SideB)

		emit("subroutines", map[string]int64{"n": int64(n)},
			cl.Rounds()+cm.Rounds()+cp.Rounds(),
			cl.Beeps()+cm.Beeps()+cp.Beeps(), time.Since(start))
		printf("%7d %11d %7d %11d %14d\n",
			n, cl.Rounds(), cm.Rounds(), cp.Rounds(), 2*bits.Len(uint(n)))
	}
}

func e9() {
	printf("(a) SPSP vs BFS on combs of growing diameter (teeth=16)\n")
	printf("  tooth len       n    diam≈   SPT rounds   BFS rounds   winner\n")
	tls := []int{25, 50, 100, 200, 400, 800}
	if *quick {
		tls = []int{25, 100, 400}
	}
	for _, tl := range tls {
		s := spforest.Comb(16, tl)
		eng := mustEngine(s, nil)
		src := amoebot.XZ(0, tl)
		dst := amoebot.XZ(30, tl)
		params := map[string]int64{"n": int64(s.N()), "toothlen": int64(tl)}
		spt := runQ(eng, engine.Query{
			Algo: engine.AlgoSPT, Sources: []amoebot.Coord{src}, Dests: []amoebot.Coord{dst},
		}, "comb-spt", params)
		die(eng.Verify([]amoebot.Coord{src}, []amoebot.Coord{dst}, spt.Forest))
		bfs := runQ(eng, engine.Query{
			Algo: engine.AlgoBFS, Sources: []amoebot.Coord{src},
		}, "comb-bfs", params)
		winner := "SPT"
		if bfs.Stats.Rounds < spt.Stats.Rounds {
			winner = "BFS"
		}
		printf("%11d %7d %8d %12d %12d   %s\n",
			tl, s.N(), 2*tl+30, spt.Stats.Rounds, bfs.Stats.Rounds, winner)
	}
	printf("(b) divide & conquer vs sequential merge: see table E4\n")
}

func e10() {
	trials := 50
	if *quick {
		trials = 15
	}
	rng := rand.New(rand.NewSource(31))
	start := time.Now()
	structures, treesOK, idOK, pairs := 0, 0, 0, 0
	for i := 0; i < trials; i++ {
		s := shapes.RandomBlob(rng, 50+rng.Intn(400))
		r := amoebot.WholeRegion(s)
		structures++
		var ps [amoebot.NumAxes]*portal.Portals
		ok := true
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			ps[axis] = portal.Compute(r, axis)
			if !ps[axis].IsPortalGraphTree() {
				ok = false
			}
		}
		if ok {
			treesOK++
		}
		// Check the distance identity on sampled pairs.
		identity := true
		for probe := 0; probe < 20; probe++ {
			u := int32(rng.Intn(s.N()))
			v := int32(rng.Intn(s.N()))
			d, _ := baseline.ExactExec(nil, r, []int32{u})
			sum := 0
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				pd := portalDist(ps[axis], ps[axis].ID[u], ps[axis].ID[v])
				sum += pd
			}
			pairs++
			if 2*int(d[v]) != sum {
				identity = false
			}
		}
		if identity {
			idOK++
		}
	}
	emit("portal-structure", map[string]int64{
		"structures": int64(structures),
		"trees_ok":   int64(treesOK),
		"identity":   int64(idOK),
		"pairs":      int64(pairs),
	}, 0, 0, time.Since(start))
	printf("structures tested: %d\n", structures)
	printf("all three portal graphs trees (Lemma 9):   %d/%d\n", treesOK, structures)
	printf("distance identity holds (Lemma 11):        %d/%d structures (%d pairs)\n",
		idOK, structures, pairs)
}

func portalDist(p *portal.Portals, a, b int32) int {
	dist := map[int32]int{a: 0}
	queue := []int32{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == b {
			return dist[u]
		}
		for _, v := range p.Nbr[u] {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist[b]
}

func e11() {
	runs := 50
	if *quick {
		runs = 15
	}
	printf("     n   avg rounds   log2(n)\n")
	for _, r := range hexRadii() {
		s := spforest.Hexagon(r)
		region := amoebot.WholeRegion(s)
		rng := rand.New(rand.NewSource(int64(r)))
		start := time.Now()
		var total, beeps int64
		for i := 0; i < runs; i++ {
			var clock sim.Clock
			leader.Elect(&clock, region, rng)
			total += clock.Rounds()
			beeps += clock.Beeps()
		}
		// Totals, not averages: consumers divide by params.runs exactly.
		emit("leader", map[string]int64{"n": int64(s.N()), "runs": int64(runs)},
			total, beeps, time.Since(start))
		printf("%6d %12.1f %9.1f\n", s.N(), float64(total)/float64(runs),
			math.Log2(float64(s.N())))
	}
}

func e13() {
	// Path-like portal trees (staircases) are the worst case for the naive
	// bottom-up schedule: Θ(k) sequential merge levels instead of the
	// centroid decomposition's O(log k).
	printf("staircase structures, sources spread over the steps\n")
	printf("     k   centroid schedule   bottom-up ablation\n")
	ks := []int{4, 8, 16, 32, 64}
	if *quick {
		ks = []int{4, 8, 16}
	}
	for _, k := range ks {
		s := shapes.Staircase(k, 6, 3)
		region := amoebot.WholeRegion(s)
		rng := rand.New(rand.NewSource(int64(k)))
		sources := shapes.RandomSubset(rng, s, k)
		start := time.Now()
		var c1, c2 sim.Clock
		env := coreEnv()
		f1 := core.ForestEnv(env, &c1, region, sources, region.Nodes(), sources[0], core.ScheduleCentroid)
		die(verify.Forest(s, sources, region.Nodes(), f1))
		f2 := core.ForestEnv(env, &c2, region, sources, region.Nodes(), sources[0], core.ScheduleTreeDepth)
		die(verify.Forest(s, sources, region.Nodes(), f2))
		emit("ablation", map[string]int64{"k": int64(k), "bottomup_rounds": c2.Rounds()},
			c1.Rounds(), c1.Beeps(), time.Since(start))
		printf("%6d %19d %20d\n", k, c1.Rounds(), c2.Rounds())
	}
}

func e12() {
	printf("chain distance (Lemma 3/4):\n")
	printf("       m   iterations   rounds   ⌊log2(m-1)⌋+1\n")
	for _, m := range []int{4, 16, 256, 4096, 65536} {
		start := time.Now()
		var clock sim.Clock
		run := pasc.NewChainDistance(m)
		pasc.Collect(&clock, run)
		emit("pasc-chain", map[string]int64{"m": int64(m), "iterations": int64(run.Iterations())},
			clock.Rounds(), clock.Beeps(), time.Since(start))
		printf("%8d %12d %8d %15d\n", m, run.Iterations(), clock.Rounds(),
			bits.Len(uint(m-1)))
	}
	printf("prefix sums (Corollary 6): iterations depend on W, not m\n")
	printf("       m      W   iterations   rounds\n")
	m := 65536
	for _, w := range []int{1, 16, 256, 4096} {
		weights := make([]bool, m)
		for i := 0; i < w; i++ {
			weights[i*(m/w)] = true
		}
		start := time.Now()
		var clock sim.Clock
		run := pasc.NewPrefixSum(weights)
		pasc.Collect(&clock, run)
		emit("pasc-prefix", map[string]int64{"m": int64(m), "w": int64(w), "iterations": int64(run.Iterations())},
			clock.Rounds(), clock.Beeps(), time.Since(start))
		printf("%8d %6d %12d %8d\n", m, w, run.Iterations(), clock.Rounds())
	}
}

// e14 measures the dynamic-structure churn workload: a chain of random
// validity-preserving deltas, a forest query after every mutation, served
// three ways — a fresh engine rebuilt from scratch per step (re-validate,
// re-elect), an incremental Engine.Apply chain (leader carried across
// deltas), and the pooled service (Mutate + Query). Rounds differ by the
// re-elections the incremental paths skip; wall time adds the host-side
// savings of incremental mutation and validation.
func e14() {
	n, steps := 4000, 16
	if *quick {
		n, steps = 1000, 6
	}
	const k = 4
	rng := rand.New(rand.NewSource(41))
	s0 := shapes.RandomBlob(rng, n)
	srcIdx := shapes.RandomSubset(rng, s0, k)
	sources := make([]amoebot.Coord, k)
	for i, idx := range srcIdx {
		sources[i] = s0.Coord(idx)
	}

	// The incremental and pooled engines elect deterministically (seed 0)
	// on s0; sparing that amoebot from removals keeps the leader alive for
	// the whole chain. Probed outside all timings.
	ldr, _ := mustEngine(s0, nil).Leader()
	keep := append(append([]amoebot.Coord(nil), sources...), ldr)

	// Pre-generate the mutation chain outside all timings, so the three
	// modes serve the identical structures and queries.
	structs := []*amoebot.Structure{s0}
	var deltas []amoebot.Delta
	for i := 0; i < steps; i++ {
		d := shapes.RandomDelta(rng, structs[i], 6, 6, keep...)
		ns, err := structs[i].Apply(d)
		die(err)
		deltas = append(deltas, d)
		structs = append(structs, ns)
	}
	queryFor := func(s *amoebot.Structure) engine.Query {
		return engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}
	}
	params := map[string]int64{"n": int64(s0.N()), "steps": int64(steps), "k": k}

	type tally struct {
		rounds, beeps, elections int64
		wall                     time.Duration
	}
	account := func(t *tally, res *spforest.Result) {
		t.rounds += res.Stats.Rounds
		t.beeps += res.Stats.Beeps
		t.elections += res.Stats.Phases["preprocess"]
	}

	// Fresh: every step rebuilds the structure and its engine from raw
	// coordinates — per-step validation and election.
	var fresh tally
	start := time.Now()
	for i := 0; i <= steps; i++ {
		rs, err := amoebot.NewStructure(structs[i].Coords())
		die(err)
		eng := mustEngine(rs, nil)
		res, err := eng.Run(queryFor(rs))
		die(err)
		account(&fresh, res)
	}
	fresh.wall = time.Since(start)
	emit("churn-fresh", params, fresh.rounds, fresh.beeps, fresh.wall)

	// Incremental: one engine, mutated along the chain with Apply.
	var incr tally
	start = time.Now()
	eng := mustEngine(s0, nil)
	res, err := eng.Run(queryFor(s0))
	die(err)
	account(&incr, res)
	for i, d := range deltas {
		eng, err = eng.Apply(d)
		die(err)
		res, err = eng.Run(queryFor(structs[i+1]))
		die(err)
		account(&incr, res)
	}
	incr.wall = time.Since(start)
	emit("churn-incremental", params, incr.rounds, incr.beeps, incr.wall)

	// Pooled: the service derives and pools engines across the chain.
	var pooled tally
	start = time.Now()
	svc := service.New(nil)
	s := s0
	pres, err := svc.Query(s, queryFor(s))
	die(err)
	account(&pooled, pres)
	for _, d := range deltas {
		ns, err := svc.Mutate(s, d)
		die(err)
		pres, err = svc.Query(ns, queryFor(ns))
		die(err)
		account(&pooled, pres)
		s = ns
	}
	pooled.wall = time.Since(start)
	emit("churn-pooled", params, pooled.rounds, pooled.beeps, pooled.wall)

	st := svc.Stats()
	printf("blob n=%d, %d deltas (±6 cells), forest query (k=%d) after every mutation\n",
		s0.N(), steps, k)
	printf("mode          total rounds   election rounds       wall\n")
	printf("fresh        %13d %17d %10v\n", fresh.rounds, fresh.elections, fresh.wall.Round(time.Millisecond))
	printf("incremental  %13d %17d %10v\n", incr.rounds, incr.elections, incr.wall.Round(time.Millisecond))
	printf("pooled       %13d %17d %10v\n", pooled.rounds, pooled.elections, pooled.wall.Round(time.Millisecond))
	printf("pool: %d engines, %d hits, %d misses, %d evictions\n",
		st.Engines, st.Hits, st.Misses, st.Evictions)
}

// e18 measures the delta-aware preprocessing under churn: a million-amoebot
// hexagon absorbs the -churn profile's delta stream (1000 steps full, a
// short chain in -quick) with every step served by the incremental chain —
// Engine.Apply patching the warmed portal decompositions and views around
// the delta footprint, then Warm to force whatever was not migrated —
// against a sampled fresh-rebuild baseline (NewStructure + engine.New +
// Warm from raw coordinates). Every step emits a JSON record carrying |Δ|,
// the patch-vs-rebuild decision (CacheStats.PortalsPatched/PortalsRebuilt)
// and the wall time, so BENCH captures the per-step scaling curve; the
// churn-patched / churn-fresh summary records carry the mean per-step wall
// the CI gate checks (patched ≤ 0.5× fresh).
func e18() {
	r, steps, every := 577, 1000, 100
	if *quick {
		r, steps, every = 24, 20, 5
	}
	prof, ok := scenario.Workloads()[*churnProf]
	if !ok {
		die(fmt.Errorf("E18: unknown churn profile %q", *churnProf))
	}
	prof.Steps = steps
	s := spforest.Hexagon(r)
	cur := mustEngine(s, &engine.Config{Seed: 1})
	ldr, _ := cur.Leader()
	cur.Warm()
	stepper, err := prof.Stepper(s, ldr)
	die(err)

	var patchedWall, freshWall time.Duration
	var patchedSteps, freshSamples int64
	var patchedAxes, rebuiltAxes, deltaCells int64
	step := 0
	for {
		d, _, more, err := stepper.Next()
		die(err)
		if !more {
			break
		}
		if d.IsEmpty() {
			continue
		}
		start := time.Now()
		ne, err := cur.Apply(d)
		die(err)
		ne.Warm()
		wall := time.Since(start)
		cs := ne.CacheStats()
		emit("step", map[string]int64{
			"step":    int64(step),
			"delta":   int64(d.Size()),
			"patched": cs.PortalsPatched,
			"rebuilt": cs.PortalsRebuilt,
		}, 0, 0, wall)
		patchedWall += wall
		patchedSteps++
		patchedAxes += cs.PortalsPatched
		rebuiltAxes += cs.PortalsRebuilt
		deltaCells += int64(d.Size())
		if step%every == 0 {
			rs, err := amoebot.NewStructure(ne.Structure().Coords())
			die(err)
			fstart := time.Now()
			fe := mustEngine(rs, &engine.Config{Seed: 1})
			fe.Leader()
			fe.Warm()
			fwall := time.Since(fstart)
			emit("fresh-sample", map[string]int64{
				"step": int64(step),
				"n":    int64(rs.N()),
			}, 0, 0, fwall)
			freshWall += fwall
			freshSamples++
		}
		cur = ne
		step++
	}
	if patchedSteps == 0 || freshSamples == 0 {
		die(fmt.Errorf("E18: churn profile %q produced no usable steps", *churnProf))
	}
	params := map[string]int64{
		"n":               int64(s.N()),
		"steps":           patchedSteps,
		"portals_patched": patchedAxes,
		"portals_rebuilt": rebuiltAxes,
		"delta_cells":     deltaCells,
	}
	meanPatched := patchedWall / time.Duration(patchedSteps)
	meanFresh := freshWall / time.Duration(freshSamples)
	emit("churn-patched", params, 0, 0, meanPatched)
	emit("churn-fresh", map[string]int64{"n": int64(s.N()), "samples": freshSamples}, 0, 0, meanFresh)
	printf("hexagon n=%d, %s profile, %d steps (Σ|Δ| = %d cells)\n",
		s.N(), *churnProf, patchedSteps, deltaCells)
	printf("portal axes patched %d, rebuilt %d\n", patchedAxes, rebuiltAxes)
	printf("per-step preprocessing   patched %10v   fresh %10v   ratio %.3f\n",
		meanPatched.Round(time.Microsecond), meanFresh.Round(time.Microsecond),
		float64(meanPatched)/float64(meanFresh))
}

// e16 sweeps the intra-query parallelism: the same large single queries —
// the E2 SPSP point on the biggest hexagon and a k=16 forest query on the
// biggest E5 blob — served by engines with IntraWorkers ∈ {1, 2, 4,
// GOMAXPROCS}. Each point times the full cold-engine cost (validation,
// preprocessing, query), which is exactly what the intra-query layer
// parallelizes; rounds and beeps are asserted identical across worker
// counts while the wall time scales with the host's cores (flat on a
// single-core machine). The expected curve: wall(w) falling towards the
// serial-fraction floor (Amdahl), with w > cores adding nothing.
func e16() {
	workerSweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		workerSweep = append(workerSweep, p)
	}
	sort.Ints(workerSweep)
	r, blobN, k := 128, 32000, 16
	if *quick {
		r, blobN, k = 32, 4000, 8
	}
	type point struct {
		label string
		s     *amoebot.Structure
		query func(s *amoebot.Structure) engine.Query
	}
	hex := spforest.Hexagon(r)
	blob := shapes.RandomBlob(rand.New(rand.NewSource(int64(blobN))), blobN)
	blobSources := spforest.RandomCoords(7, blob, k)
	points := []point{
		{"spsp-hexagon", hex, func(s *amoebot.Structure) engine.Query {
			return engine.Query{
				Algo:    engine.AlgoSPSP,
				Sources: []amoebot.Coord{amoebot.XZ(-r, 0)},
				Dests:   []amoebot.Coord{amoebot.XZ(r, 0)},
			}
		}},
		{"forest-blob", blob, func(s *amoebot.Structure) engine.Query {
			return engine.Query{Algo: engine.AlgoForest, Sources: blobSources, Dests: s.Coords()}
		}},
	}
	printf("cold engine (validate + preprocess) + one large query per point\n")
	printf("%-14s %7s %9s", "point", "n", "rounds")
	for _, w := range workerSweep {
		printf("   w=%-2d     ", w)
	}
	printf("\n")
	for _, pt := range points {
		var refRounds, refBeeps int64
		walls := make([]time.Duration, 0, len(workerSweep))
		for i, w := range workerSweep {
			// Rebuild the structure so no memoized validation leaks between
			// worker counts: every run pays the identical cold-start cost.
			s, err := amoebot.NewStructure(pt.s.Coords())
			die(err)
			q := pt.query(s)
			start := time.Now()
			eng := mustEngine(s, &engine.Config{Seed: 1, IntraWorkers: w})
			res, err := eng.Run(q)
			wall := time.Since(start)
			die(err)
			if i == 0 {
				refRounds, refBeeps = res.Stats.Rounds, res.Stats.Beeps
			} else if res.Stats.Rounds != refRounds || res.Stats.Beeps != refBeeps {
				die(fmt.Errorf("E16 %s: workers=%d charged %d/%d rounds/beeps, workers=%d charged %d/%d — parallel layer is not deterministic",
					pt.label, workerSweep[0], refRounds, refBeeps, w, res.Stats.Rounds, res.Stats.Beeps))
			}
			walls = append(walls, wall)
			emit(pt.label+fmt.Sprintf("/w=%d", w), map[string]int64{
				"n":       int64(s.N()),
				"workers": int64(w),
			}, res.Stats.Rounds, res.Stats.Beeps, wall)
		}
		printf("%-14s %7d %9d", pt.label, pt.s.N(), refRounds)
		for _, wl := range walls {
			printf(" %10v", wl.Round(time.Microsecond))
		}
		printf("\n")
	}
}

// e15 sweeps the scenario registry: every registered scenario (optionally
// filtered by -scenarios) × every registered solver, verified against the
// centralized ground truth as it runs. Hole-free scenarios exercise all
// solvers; holed scenarios run the hole-tolerant ones (the rest print "-":
// portal graphs are not trees on holed structures, Lemma 9). Each point
// emits one -json record labeled "<scenario>/<solver>", extending the
// BENCH trajectory with per-geometry round counts.
func e15() {
	algos := engine.Solvers()
	printf("scenario registry sweep; sources = the per-scenario pair set\n")
	printf("%-34s %5s %5s", "scenario", "n", "holes")
	for _, algo := range algos {
		printf(" %10s", algo)
	}
	printf("\n")
	for _, sc := range scenario.All() {
		if *scenarios != "" && !strings.Contains(sc.Name, *scenarios) {
			continue
		}
		if *quick && sc.S.N() > 130 {
			continue // -quick trims the larger instances, like every other sweep
		}
		cfg := &engine.Config{Seed: 1}
		if sc.Holed() {
			cfg.AllowHoles = true
		}
		eng := mustEngine(sc.S, cfg)
		sets := sc.SourceSets()
		srcs, spread, all := sets[1], sets[len(sets)-1], sc.S.Coords()
		printf("%-34s %5d %5d", sc.Name, sc.S.N(), sc.Holes)
		for _, algo := range algos {
			if sc.Holed() && !engine.HoleTolerant(algo) {
				printf(" %10s", "-")
				continue
			}
			q, verifyDests := scenario.QueryFor(algo, srcs, spread, all)
			start := time.Now()
			res, err := eng.Run(q)
			elapsed := time.Since(start) // solver time only; verification is not measured
			die(err)
			die(eng.Verify(q.Sources, verifyDests, res.Forest))
			emit(sc.Name+"/"+algo, map[string]int64{
				"n":     int64(sc.S.N()),
				"holes": int64(sc.Holes),
				"k":     int64(len(q.Sources)),
			}, res.Stats.Rounds, res.Stats.Beeps, elapsed)
			printf(" %10d", res.Stats.Rounds)
		}
		printf("\n")
	}
}

// e17 measures cross-query sharing in Engine.Batch at million-amoebot
// scale: 16 single-source tree queries against one destination set — 4
// distinct sources along the z=0 row of a radius-577 hexagon (n ≈ 1.0·10⁶),
// each repeated 4 times — answered once by a solo Run loop and once by
// Batch on the same warm engine. The batch planner collapses the repeats
// (4 solves instead of 16) and answers the distinct sources in one shared
// group pass over the portal decompositions, so the batch wall should land
// well under the solo sum (the BENCH gate expects < 0.8×) while the summed
// simulated rounds and beeps — asserted here — match the solo loop exactly.
func e17() {
	r, reps, nd := 577, 4, 64
	if *quick {
		r, reps, nd = 24, 4, 16
	}
	hex := spforest.Hexagon(r)
	xs := []int{-r / 2, -r / 4, r / 4, r / 2}
	dests := spforest.RandomCoords(21, hex, nd)
	var queries []engine.Query
	for _, x := range xs {
		for rep := 0; rep < reps; rep++ {
			queries = append(queries, engine.Query{
				Algo:    engine.AlgoSPT,
				Sources: []amoebot.Coord{amoebot.XZ(x, 0)},
				Dests:   dests,
			})
		}
	}
	eng := mustEngine(hex, &engine.Config{Seed: 1})
	// Warm the per-structure memo (portal decompositions) so both
	// measurements time query work, not one-off preprocessing.
	_, err := eng.Run(queries[0])
	die(err)

	soloStart := time.Now()
	var soloRounds, soloBeeps int64
	for _, q := range queries {
		res, err := eng.Run(q)
		die(err)
		soloRounds += res.Stats.Rounds
		soloBeeps += res.Stats.Beeps
	}
	soloWall := time.Since(soloStart)

	batchStart := time.Now()
	batch := eng.Batch(queries)
	batchWall := time.Since(batchStart)
	for _, qr := range batch.Results {
		die(qr.Err)
	}
	if batch.Stats.Rounds != soloRounds || batch.Stats.Beeps != soloBeeps {
		die(fmt.Errorf("E17: batch charged %d/%d rounds/beeps, solo loop charged %d/%d — sharing changed the simulated cost",
			batch.Stats.Rounds, batch.Stats.Beeps, soloRounds, soloBeeps))
	}
	params := map[string]int64{
		"n":        int64(hex.N()),
		"queries":  int64(len(queries)),
		"distinct": int64(len(xs)),
		"dests":    int64(nd),
	}
	emit("spt-solo", params, soloRounds, soloBeeps, soloWall)
	emit("spt-batch", params, batch.Stats.Rounds, batch.Stats.Beeps, batchWall)
	printf("hexagon n=%d; %d queries (%d distinct sources × %d repeats), %d shared destinations\n",
		hex.N(), len(queries), len(xs), reps, nd)
	printf("solo loop  %9d rounds %10v\n", soloRounds, soloWall.Round(time.Millisecond))
	printf("batch      %9d rounds %10v   (deduped %d, groups %d, ratio %.2f)\n",
		batch.Stats.Rounds, batchWall.Round(time.Millisecond),
		batch.Stats.Deduped, batch.Stats.Groups,
		float64(batchWall)/float64(soloWall))
}

// e20 measures intra-query wave sharing (DESIGN.md §10) on its MS-BFS
// path, pinning zero simulated drift: 16 single-source bfs queries on a
// radius-577 hexagon (n ≈ 1.0·10⁶) answered per source by a solo Run loop
// and as lanes of one MS-BFS sweep by Batch. Summed rounds and beeps are
// asserted identical; the shared sweep expands the union frontier once per
// layer instead of once per source.
func e20() {
	r, nbfs := 577, 16
	if *quick {
		r, nbfs = 24, 8
	}

	// Distinct sources drawn from a small disc at the hexagon's center. Lane
	// packing shares work where wavefronts travel together — clustered
	// seeds keep every node's per-lane discovery layers within the cluster
	// diameter, so the union frontier visits each node a few times instead
	// of once per lane (sources spread across the structure degrade
	// gracefully towards per-source cost; see EXPERIMENTS.md E20).
	hex := spforest.Hexagon(r)
	var cluster []amoebot.Coord
	for x := -2; x <= 2 && len(cluster) < nbfs; x++ {
		for z := -2; z <= 2 && len(cluster) < nbfs; z++ {
			if x+z >= -2 && x+z <= 2 {
				cluster = append(cluster, amoebot.XZ(x, z))
			}
		}
	}
	var queries []engine.Query
	for _, c := range cluster {
		queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: []amoebot.Coord{c}})
	}
	nbfs = len(queries)
	eng := mustEngine(hex, &engine.Config{Seed: 1})
	_, err := eng.Run(queries[0]) // warm the per-structure memo
	die(err)

	soloStart := time.Now()
	var soloRounds, soloBeeps int64
	for _, q := range queries {
		res, err := eng.Run(q)
		die(err)
		soloRounds += res.Stats.Rounds
		soloBeeps += res.Stats.Beeps
	}
	soloWall := time.Since(soloStart)

	batchStart := time.Now()
	batch := eng.Batch(queries)
	batchWall := time.Since(batchStart)
	for _, qr := range batch.Results {
		die(qr.Err)
	}
	if batch.Stats.Rounds != soloRounds || batch.Stats.Beeps != soloBeeps {
		die(fmt.Errorf("E20: lane-packed bfs batch charged %d/%d rounds/beeps, per-source loop charged %d/%d",
			batch.Stats.Rounds, batch.Stats.Beeps, soloRounds, soloBeeps))
	}
	if batch.Stats.WavesPacked != int64(nbfs) {
		die(fmt.Errorf("E20: bfs batch packed %d waves, want %d", batch.Stats.WavesPacked, nbfs))
	}
	bparams := map[string]int64{"n": int64(hex.N()), "queries": int64(nbfs)}
	emit("bfs-persource", bparams, soloRounds, soloBeeps, soloWall)
	emit("bfs-packed", bparams, batch.Stats.Rounds, batch.Stats.Beeps, batchWall)
	printf("bfs: hexagon n=%d, %d distinct sources\n", hex.N(), nbfs)
	printf("  per-source %8d rounds %10v\n", soloRounds, soloWall.Round(time.Millisecond))
	printf("  packed     %8d rounds %10v   (%d waves / %d lane passes, ratio %.2f)\n",
		batch.Stats.Rounds, batchWall.Round(time.Millisecond),
		batch.Stats.WavesPacked, batch.Stats.LanePasses,
		float64(batchWall)/float64(soloWall))
}
