// Package engine provides the reusable query layer over the shortest-path
// forest algorithms: an Engine binds to one validated amoebot structure and
// memoizes the expensive per-structure preprocessing — validation, the
// whole-structure region, the elected leader (Theorem 2) and the exact
// reference distances — so that a stream of queries pays for it once
// instead of once per call.
//
// This mirrors the factoring of Padalkin & Scheideler (PODC 2024): their
// algorithms assume per-structure preprocessing (leader election and the
// portal/tree primitives of the reconfigurable-circuit toolbox) and then
// answer individual (S,D) queries in polylogarithmic rounds. The engine
// makes that split explicit in the API.
//
// Every algorithm sits behind the Solver interface and is selected by name
// (see Solvers); Engine.Run answers one Query and Engine.Batch fans a slice
// of queries out over a bounded worker pool, each query with its own
// simulated clock. Engines are safe for concurrent use.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/core"
	"spforest/internal/dense"
	"spforest/internal/leader"
	"spforest/internal/par"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// Config tunes an Engine.
type Config struct {
	// Leader designates the pre-elected unique amoebot the paper's
	// preprocessing assumes (§2.1). If nil, a leader is elected lazily on
	// the first query that needs one, with the randomized circuit protocol
	// of Theorem 2; its Θ(log n) w.h.p. rounds are charged to that query's
	// "preprocess" phase and amortized over all later queries.
	Leader *amoebot.Coord
	// Seed drives the randomized leader election (ignored when Leader is
	// set).
	Seed int64
	// Workers bounds the concurrency of Batch. Zero or negative means
	// GOMAXPROCS.
	Workers int
	// IntraWorkers bounds the intra-query parallelism: the worker budget of
	// the deterministic parallel layer (internal/par) that every single
	// query may spend on its own dense sweeps — validation's edge/triangle
	// tally, the three per-axis portal decompositions, per-region base
	// cases and propagation components, per-level merges and SPT parent
	// choice. The bfs and exact baselines sweep serially at every setting.
	// 1 forces the fully serial per-query path; zero or negative means
	// GOMAXPROCS. Results, simulated rounds and beeps are bit-for-bit
	// identical at every setting — the layer only changes host wall time.
	IntraWorkers int
	// AllowHoles admits structures that are connected but not hole-free.
	// The paper's portal-based algorithms require hole-free structures
	// (portal graphs are trees only then, Lemma 9), so on a holed engine
	// only hole-tolerant solvers (AlgoBFS, AlgoExact — see HoleTolerant)
	// answer queries; the others fail with a precondition error. Deriving
	// engines with Apply still requires hole-free results.
	AllowHoles bool
}

// Engine answers shortest-path-forest queries against one validated
// structure. Construct with New; the zero value is unusable. Engines are
// safe for concurrent use by multiple goroutines.
type Engine struct {
	s         *amoebot.Structure
	region    *amoebot.Region
	cfg       Config
	workers   int
	gen       uint64       // 0 for New; parent+1 along an Apply chain
	arena     *dense.Arena // per-engine scratch pool, shared down Apply chains
	exec      *par.Exec    // intra-query parallel executor (IntraWorkers over arena)
	batchExec *par.Exec    // inter-query executor of Batch (Workers budget, no arena)
	env       *core.Env    // execution environment handed to the core algorithms
	holes     int          // the structure's hole count (non-zero only under Config.AllowHoles)

	leaderOnce  sync.Once
	leaderIdx   int32
	leaderKnown atomic.Bool // true once leaderIdx is settled (set, given or inherited)
	prepStats   Stats       // cost of the lazy election; zero when Leader was given

	distMu    sync.Mutex
	distCache map[string][]int32 // exact distances per canonical source set
	distOrder []string           // cache keys in insertion order: the FIFO eviction ring
	distStats CacheStats         // counters under distMu; Generation/DistEntries filled on read

	inspect inspectState // memoized portal decompositions (see inspect.go)
}

// New validates the structure once and binds an engine to it. All later
// queries reuse the validation, the whole-structure region, the (lazily
// elected) leader and the reference-distance cache.
//
// Without Config.AllowHoles the structure must satisfy the paper's
// preconditions (connected and hole-free); with it, connectivity alone is
// required and only hole-tolerant solvers answer queries (see
// Config.AllowHoles).
func New(s *amoebot.Structure, cfg *Config) (*Engine, error) {
	if s == nil {
		return nil, errors.New("engine: nil structure")
	}
	e := &Engine{
		s:         s,
		region:    amoebot.WholeRegion(s),
		arena:     dense.NewArena(),
		distCache: make(map[string][]int32),
	}
	if cfg != nil {
		e.cfg = *cfg
	}
	e.exec = par.New(e.cfg.IntraWorkers, e.arena)
	e.env = core.NewEnv(e.exec, (*enginePortalSource)(e))
	if err := s.ValidateExec(e.exec); err != nil {
		if !e.cfg.AllowHoles {
			return nil, err
		}
		// A holed engine needs connectivity alone. Both counts come from
		// the validation pass, which the structure memoizes.
		if !s.IsConnected() {
			return nil, errors.New("engine: structure is not connected")
		}
		e.holes = s.Holes()
	}
	e.workers = e.cfg.Workers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	// The batch executor hands whole queries (and query groups) out to the
	// Workers-bounded pool; the token pool makes concurrent Batch calls on
	// one engine share the budget instead of stacking pools.
	e.batchExec = par.New(e.workers, nil)
	if e.cfg.Leader != nil {
		i, ok := s.Index(*e.cfg.Leader)
		if !ok {
			return nil, fmt.Errorf("engine: leader %v is not part of the structure", *e.cfg.Leader)
		}
		e.setLeader(i) // election pre-empted by the given leader
	}
	return e, nil
}

// setLeader settles the engine's leader without an election (a configured
// Config.Leader, or a leader inherited across Apply). The preprocessing
// stats take the same shape as an elected leader's — a "preprocess" phase
// of zero rounds — so Leader() reports one consistent shape either way.
func (e *Engine) setLeader(i int32) {
	e.leaderOnce.Do(func() {
		e.leaderIdx = i
		e.prepStats = Stats{Phases: map[string]int64{"preprocess": 0}}
		e.leaderKnown.Store(true)
	})
}

// Generation returns the engine's position on its Apply chain: 0 for an
// engine built by New, parent+1 for an engine derived with Apply.
func (e *Engine) Generation() uint64 { return e.gen }

// Holed reports whether the engine's structure has holes (possible only
// for engines built with Config.AllowHoles).
func (e *Engine) Holed() bool { return e.holes > 0 }

// Structure returns the structure the engine is bound to.
func (e *Engine) Structure() *amoebot.Structure { return e.s }

// Region returns the memoized whole-structure region.
func (e *Engine) Region() *amoebot.Region { return e.region }

// Run answers one query on its own simulated clock. An empty Query.Algo
// selects the divide-and-conquer forest algorithm.
func (e *Engine) Run(q Query) (*Result, error) {
	pq := e.planQuery(q)
	if pq.err != nil {
		return nil, pq.err
	}
	return e.runPlanned(&pq)
}

// plannedQuery is one query after planning: solver looked up, precondition
// checked, coordinates resolved to canonical index sets. Batch plans every
// query up front to dedupe and group them; Run plans and executes in one
// breath. Either way the validation semantics are this one function.
type plannedQuery struct {
	solver Solver
	srcs   []int32
	dests  []int32 // nil when the query gave no destinations
	err    error   // planning failure; the query executes nothing
	dup    int     // Batch only: index of the identical earlier query; -1 otherwise
}

func (e *Engine) planQuery(q Query) plannedQuery {
	pq := plannedQuery{dup: -1}
	algo := q.Algo
	if algo == "" {
		algo = AlgoForest
	}
	solver, ok := Lookup(algo)
	if !ok {
		pq.err = unknownAlgo(algo)
		return pq
	}
	if e.holes > 0 && !holeTolerant(solver) {
		pq.err = e.holeFreeErr(algo)
		return pq
	}
	pq.solver = solver
	pq.srcs, pq.err = e.resolve(q.Sources, "source")
	if pq.err != nil {
		return pq
	}
	if len(q.Dests) > 0 {
		pq.dests, pq.err = e.resolve(q.Dests, "destination")
	}
	return pq
}

// holeFreeErr is the precondition error of a portal-based algorithm on a
// holed structure; it formats the hole count New stored.
func (e *Engine) holeFreeErr(algo string) error {
	return fmt.Errorf("engine: algorithm %q requires a hole-free structure (%d hole(s); hole-tolerant solvers: %s)",
		algo, e.holes, strings.Join(HoleTolerantSolvers(), ", "))
}

// runPlanned executes a successfully planned query on a fresh clock.
func (e *Engine) runPlanned(pq *plannedQuery) (*Result, error) {
	var clock sim.Clock
	ctx := e.newContext(&clock, pq.srcs, pq.dests)
	f, err := pq.solver.Solve(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{Forest: f, Stats: ctx.stats()}, nil
}

// newContext builds one query's execution context.
func (e *Engine) newContext(clock *sim.Clock, srcs, dests []int32) *Context {
	return &Context{Engine: e, Clock: clock, Sources: srcs, Dests: dests}
}

// leaderFor returns the memoized leader index, running the randomized
// election of Theorem 2 on the first call. The election runs on the whole
// region, which New validated to be connected, as leader.Elect requires.
// The triggering query's clock is charged the election's "preprocess"
// phase; every later query gets the leader for free. Concurrent first calls
// serialize on the election.
func (e *Engine) leaderFor(clock *sim.Clock) int32 {
	e.leaderOnce.Do(func() {
		before := clock.Snapshot()
		rng := rand.New(rand.NewSource(e.cfg.Seed))
		clock.Phase("preprocess", func() {
			e.leaderIdx = leader.Elect(clock, e.region, rng)
		})
		after := clock.Snapshot()
		rounds := after.Rounds - before.Rounds
		e.prepStats = Stats{
			Rounds: rounds,
			Beeps:  after.Beeps - before.Beeps,
			Phases: map[string]int64{"preprocess": rounds},
		}
		e.leaderKnown.Store(true)
	})
	return e.leaderIdx
}

// Leader returns the engine's leader and the simulated cost of electing it.
// With a configured Config.Leader the cost is zero; otherwise the first
// call (or the first forest query) runs the election and later calls return
// the memoized result. Calling Leader before a query stream pre-pays the
// preprocessing so no query is charged for it.
//
// The returned stats always carry a "preprocess" phase (zero rounds for a
// configured or inherited leader), and the phase map is a copy — mutating
// it does not corrupt the engine's memoized accounting.
func (e *Engine) Leader() (amoebot.Coord, Stats) {
	var clock sim.Clock
	idx := e.leaderFor(&clock)
	st := e.prepStats
	st.Phases = make(map[string]int64, len(e.prepStats.Phases))
	for k, v := range e.prepStats.Phases {
		st.Phases[k] = v
	}
	return e.s.Coord(idx), st
}

// Verify checks the five (S,D)-shortest-path-forest properties of f
// against the centralized reference solver; it returns nil iff f is a
// correct (S,D)-SPF of the engine's structure. It reuses the memoized
// region and reference distances instead of recomputing them per call.
func (e *Engine) Verify(sources, dests []amoebot.Coord, f *amoebot.Forest) error {
	srcs, err := e.resolve(sources, "source")
	if err != nil {
		return err
	}
	ds, err := e.resolve(dests, "destination")
	if err != nil {
		return err
	}
	return verify.ForestInRegionWithDist(e.region, e.exactDistances(srcs), srcs, ds, f)
}

// Distances returns, for every amoebot (indexed as in Structure().Coords()),
// the graph distance to the nearest source, computed once per distinct
// source set by the centralized reference solver and memoized.
func (e *Engine) Distances(sources []amoebot.Coord) ([]int, error) {
	srcs, err := e.resolve(sources, "source")
	if err != nil {
		return nil, err
	}
	d := e.exactDistances(srcs)
	out := make([]int, len(d))
	for i, v := range d {
		out[i] = int(v)
	}
	return out, nil
}

// maxDistCacheEntries bounds the distance memo: each entry is an O(n)
// slice, and an engine is long-lived, so an unbounded cache would grow
// with every distinct source set ever queried.
const maxDistCacheEntries = 64

// exactDistances memoizes baseline.ExactExec per canonical source set, keeping
// at most maxDistCacheEntries entries. Eviction is a deterministic FIFO
// ring over insertion order — the oldest-inserted entry goes first — so a
// repeated batch workload cannot randomly evict its own hot entry. The
// returned slice is shared; callers must not modify it.
func (e *Engine) exactDistances(srcs []int32) []int32 {
	key := sourceKey(srcs)
	e.distMu.Lock()
	d, hit := e.distCache[key]
	if hit {
		e.distStats.DistHits++
	} else {
		e.distStats.DistMisses++
	}
	e.distMu.Unlock()
	if hit {
		return d
	}
	d, _ = baseline.ExactExec(e.exec, e.region, srcs)
	e.distMu.Lock()
	if _, dup := e.distCache[key]; !dup {
		if len(e.distCache) >= maxDistCacheEntries {
			delete(e.distCache, e.distOrder[0])
			e.distOrder = e.distOrder[1:]
		}
		e.distOrder = append(e.distOrder, key)
	}
	e.distCache[key] = d
	e.distMu.Unlock()
	return d
}

// CacheStats reports the engine's generation-tracked cache counters: hits
// and misses of the exact-distance memo on this engine, which starts empty
// on every engine (Apply carries no entry), and — for engines derived with
// Apply — how the parent's portal decompositions fared in the migration.
func (e *Engine) CacheStats() CacheStats {
	e.distMu.Lock()
	st := e.distStats
	st.DistEntries = len(e.distCache)
	e.distMu.Unlock()
	st.Generation = e.gen
	return st
}

// CacheStats summarizes an engine's memoization behavior.
type CacheStats struct {
	// Generation is the engine's position on its Apply chain.
	Generation uint64
	// DistEntries is the current number of memoized exact-distance entries.
	DistEntries int
	// DistHits and DistMisses count exactDistances lookups on this engine.
	DistHits, DistMisses int64
	// PortalsPatched and PortalsRebuilt count, for the Apply that built
	// this engine, the parent's memoized portal axes that were repaired in
	// place around the delta footprint versus invalidated back to lazy
	// recomputation (footprint too large, or a holed structure).
	PortalsPatched, PortalsRebuilt int64
}

func sourceKey(srcs []int32) string {
	sorted := make([]int32, len(srcs))
	copy(sorted, srcs)
	for i := 1; i < len(sorted); i++ { // insertion sort: source sets are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var b strings.Builder
	for _, s := range sorted {
		b.WriteString(strconv.Itoa(int(s)))
		b.WriteByte(',')
	}
	return b.String()
}

// resolve maps coordinates to node indices, rejecting coordinates outside
// the structure and dropping duplicates (keeping first occurrences).
func (e *Engine) resolve(cs []amoebot.Coord, what string) ([]int32, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("engine: no %ss given", what)
	}
	out := make([]int32, 0, len(cs))
	seen := e.arena.BitSet(e.s.N())
	defer e.arena.PutBitSet(seen)
	for _, c := range cs {
		i, ok := e.s.Index(c)
		if !ok {
			return nil, fmt.Errorf("engine: %s %v is not part of the structure", what, c)
		}
		if !seen.Has(i) {
			seen.Add(i)
			out = append(out, i)
		}
	}
	return out, nil
}
