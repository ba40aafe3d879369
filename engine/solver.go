package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spforest/amoebot"
	"spforest/internal/core"
	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/sim"
)

// Context carries the per-query execution state handed to a Solver: the
// engine (for memoized per-structure state), the query's private clock, and
// the resolved, deduplicated node indices of the query's sources and
// destinations.
type Context struct {
	Engine  *Engine
	Clock   *sim.Clock
	Sources []int32
	Dests   []int32 // nil when the query gave no destinations

	// lanes collects this query's MS-BFS lane telemetry for Stats.
	lanes laneCounts
}

// laneCounts is one query's MS-BFS lane telemetry (Stats.WavesPacked,
// Stats.LanePasses): the bfs waves it ran as lanes of a shared sweep and
// the sweep layers its lane was live in. The bfs group solve that owns the
// query's context writes it; stats reads it after the solve returns.
type laneCounts struct {
	waves, passes int64
}

// Region returns the whole-structure region the engine memoizes.
func (ctx *Context) Region() *amoebot.Region { return ctx.Engine.Region() }

// Arena returns the engine's scratch arena. Solvers draw their dense
// index-space scratch (bitsets, flat int32 maps) from it so that repeated
// queries against one engine recycle the same backing arrays; everything
// taken from the arena must be returned to it before Solve finishes.
func (ctx *Context) Arena() *dense.Arena { return ctx.Engine.arena }

// Exec returns the engine's intra-query parallel executor (worker budget
// Config.IntraWorkers over the engine's arena). Solvers may fan their own
// sweeps out over it as long as the output stays bit-identical at every
// worker count (see internal/par for the determinism rules).
func (ctx *Context) Exec() *par.Exec { return ctx.Engine.exec }

// Env returns the engine's core execution environment: the executor plus
// the engine's memoized portal decompositions, ready to hand to the core
// algorithm entry points.
func (ctx *Context) Env() *core.Env { return ctx.Engine.env }

// stats snapshots the query's clock plus its MS-BFS lane telemetry.
func (ctx *Context) stats() Stats {
	st := statsOf(ctx.Clock)
	st.WavesPacked, st.LanePasses = ctx.lanes.waves, ctx.lanes.passes
	return st
}

// Solver is one shortest-path-forest algorithm behind the engine. Solvers
// must be safe for concurrent use: Solve may be called from many goroutines
// at once (with distinct Contexts) against the same Engine.
//
// A solver whose algorithm does not depend on the hole-free precondition
// (Lemma 9: portal graphs are trees only on hole-free structures) may
// additionally implement
//
//	HoleTolerant() bool
//
// returning true; such solvers also answer queries on engines built with
// Config.AllowHoles. Solvers without the method are assumed to require
// hole-free structures.
type Solver interface {
	// Name is the identifier queries select the solver by.
	Name() string
	// Solve runs the algorithm, charging simulated rounds to ctx.Clock.
	Solve(ctx *Context) (*amoebot.Forest, error)
}

// holeTolerant reports whether the solver declared itself independent of
// the hole-free precondition.
func holeTolerant(s Solver) bool {
	h, ok := s.(interface{ HoleTolerant() bool })
	return ok && h.HoleTolerant()
}

// SharedSolver is a Solver that can answer a group of queries in one shared
// pass, cheaper than solving each member alone. Batch uses it for
// cross-query sharing: queries whose ShareKey matches form a group, and the
// group is handed to SolveShared as one unit.
//
// The contract is strict so that grouping stays invisible:
//
//   - ShareKey is called with a query's resolved source and destination
//     indices and returns (key, true) when the query is groupable. Two
//     queries with equal keys MUST produce, under SolveShared, forests and
//     per-clock stats bit-identical to what their individual Solve calls
//     would have produced. A false return keeps the query on the solo path
//     (e.g. an arity the solver would reject — Solve owns the error
//     message).
//   - SolveShared receives one Context per member (each with its own
//     Clock) and returns one forest and one error per member, positionally.
//     Members arrive in ascending batch index order and results must be
//     independent (no shared mutable state between returned forests).
type SharedSolver interface {
	Solver
	ShareKey(sources, dests []int32) (string, bool)
	SolveShared(ctxs []*Context) ([]*amoebot.Forest, []error)
}

// sharedSolver reports whether the solver supports cross-query sharing.
func sharedSolver(s Solver) (SharedSolver, bool) {
	ss, ok := s.(SharedSolver)
	return ss, ok
}

// HoleTolerant reports whether the named registered solver answers queries
// on holed structures (engines built with Config.AllowHoles). Unknown
// names report false.
func HoleTolerant(name string) bool {
	s, ok := Lookup(name)
	return ok && holeTolerant(s)
}

// HoleTolerantSolvers returns the names of the registered hole-tolerant
// solvers in sorted order.
func HoleTolerantSolvers() []string {
	var names []string
	for _, name := range Solvers() {
		if HoleTolerant(name) {
			names = append(names, name)
		}
	}
	return names
}

// Built-in solver names.
const (
	// AlgoForest is the divide-and-conquer (S,D)-shortest-path-forest
	// algorithm (Theorem 56 / Corollary 57, O(log n · log² k) rounds).
	AlgoForest = "forest"
	// AlgoSPT is the single-source shortest path tree algorithm
	// (Theorem 39, O(log ℓ) rounds).
	AlgoSPT = "spt"
	// AlgoSPSP is the single-pair special case of AlgoSPT (O(1) rounds).
	AlgoSPSP = "spsp"
	// AlgoSSSP is the all-destinations special case of AlgoSPT
	// (O(log n) rounds); queries need only a source.
	AlgoSSSP = "sssp"
	// AlgoSequential is the naive sequential-merge baseline
	// (§5 introduction, O(k log n) rounds).
	AlgoSequential = "sequential"
	// AlgoBFS is the plain-model breadth-first wavefront baseline
	// (Θ(diam) rounds); queries need only sources.
	AlgoBFS = "bfs"
	// AlgoExact is the centralized reference solver (not a distributed
	// algorithm; zero simulated rounds). It returns a canonical
	// (S,D)-shortest-path forest for ground-truth comparisons.
	AlgoExact = "exact"
)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Solver)
)

// Register makes a solver selectable by its name in Query.Algo. It returns
// an error if the name is empty or already taken.
func Register(s Solver) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("engine: solver with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("engine: solver %q already registered", name)
	}
	registry[name] = s
	return nil
}

func mustRegister(s Solver) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the solver registered under name.
func Lookup(name string) (Solver, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Solvers returns the registered solver names in sorted order.
func Solvers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func unknownAlgo(name string) error {
	return fmt.Errorf("engine: unknown algorithm %q (have %s)",
		name, strings.Join(Solvers(), ", "))
}
