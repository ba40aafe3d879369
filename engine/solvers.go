package engine

import (
	"errors"
	"fmt"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/core"
	"spforest/internal/sim"
)

func init() {
	mustRegister(forestSolver{})
	mustRegister(treeSolver{name: AlgoSPT})
	mustRegister(treeSolver{name: AlgoSPSP, singlePair: true})
	mustRegister(treeSolver{name: AlgoSSSP, allDests: true})
	mustRegister(sequentialSolver{})
	mustRegister(bfsSolver{})
	mustRegister(exactSolver{})
}

func needDests(ctx *Context, name string) error {
	if len(ctx.Dests) == 0 {
		return fmt.Errorf("engine: %s query without destinations", name)
	}
	return nil
}

// forestSolver runs the divide-and-conquer algorithm of §5.4 after the
// engine's memoized leader preprocessing.
type forestSolver struct{}

func (forestSolver) Name() string { return AlgoForest }

func (forestSolver) Solve(ctx *Context) (*amoebot.Forest, error) {
	if err := needDests(ctx, AlgoForest); err != nil {
		return nil, err
	}
	ldr := ctx.Engine.leaderFor(ctx.Clock)
	var f *amoebot.Forest
	ctx.Clock.Phase("forest", func() {
		f = core.ForestEnv(ctx.Env(), ctx.Clock, ctx.Region(), ctx.Sources, ctx.Dests, ldr, core.ScheduleCentroid)
	})
	return f, nil
}

// treeSolver runs the single-source algorithm of §4 (Theorem 39); SPSP and
// SSSP are its k = ℓ = 1 and ℓ = n arity-checked special cases. All three
// charge the "spt" phase — they are the same algorithm.
type treeSolver struct {
	name       string
	singlePair bool // exactly one destination required (SPSP)
	allDests   bool // destinations are implicitly every amoebot (SSSP)
}

func (t treeSolver) Name() string { return t.name }

func (t treeSolver) Solve(ctx *Context) (*amoebot.Forest, error) {
	if len(ctx.Sources) != 1 {
		return nil, fmt.Errorf("engine: %s query needs exactly one source, got %d",
			t.name, len(ctx.Sources))
	}
	dests := ctx.Dests
	switch {
	case t.allDests:
		dests = ctx.Region().Nodes()
	case t.singlePair:
		if len(dests) != 1 {
			return nil, fmt.Errorf("engine: %s query needs exactly one destination, got %d",
				t.name, len(dests))
		}
	default:
		if err := needDests(ctx, t.name); err != nil {
			return nil, err
		}
	}
	var f *amoebot.Forest
	ctx.Clock.Phase("spt", func() {
		f = core.SPTEnv(ctx.Env(), ctx.Clock, ctx.Region(), ctx.Sources[0], dests)
	})
	return f, nil
}

// ShareKey groups single-source queries by destination set: all of a
// group's sources sweep the shared per-axis root-and-prune decompositions
// in one pass (core.SPTManyEnv). The key uses the canonical sorted
// destination order — destination order cannot affect the SPT output (the
// algorithm only consults membership, never order). Queries with an arity
// Solve would reject stay solo so Solve keeps owning the error message.
func (t treeSolver) ShareKey(sources, dests []int32) (string, bool) {
	if len(sources) != 1 {
		return "", false
	}
	switch {
	case t.allDests:
		return "", true // destinations are implicit: every query shares
	case t.singlePair:
		if len(dests) != 1 {
			return "", false
		}
	default:
		if len(dests) == 0 {
			return "", false
		}
	}
	return sourceKey(dests), true
}

// SolveShared runs the group's sources through one shared root-and-prune
// sweep. Each member's clock is charged exactly what its solo Solve would
// have charged (core.SPTManyEnv replays the memoized per-axis costs per
// source), so stats — like forests — are bit-identical to the solo path.
func (t treeSolver) SolveShared(ctxs []*Context) ([]*amoebot.Forest, []error) {
	clocks := make([]*sim.Clock, len(ctxs))
	sources := make([]int32, len(ctxs))
	starts := make([]int64, len(ctxs))
	for i, ctx := range ctxs {
		clocks[i] = ctx.Clock
		sources[i] = ctx.Sources[0]
		starts[i] = ctx.Clock.Rounds()
	}
	dests := ctxs[0].Dests
	if t.allDests {
		dests = ctxs[0].Region().Nodes()
	}
	fs := core.SPTManyEnv(ctxs[0].Env(), clocks, ctxs[0].Region(), sources, dests)
	for i, ctx := range ctxs {
		ctx.Clock.AttributePhase("spt", ctx.Clock.Rounds()-starts[i])
	}
	return fs, make([]error, len(ctxs))
}

// sequentialSolver runs the paper's O(k log n) sequential-merge baseline.
type sequentialSolver struct{}

func (sequentialSolver) Name() string { return AlgoSequential }

func (sequentialSolver) Solve(ctx *Context) (*amoebot.Forest, error) {
	if err := needDests(ctx, AlgoSequential); err != nil {
		return nil, err
	}
	var f *amoebot.Forest
	ctx.Clock.Phase("sequential", func() {
		f = core.ForestSequentialEnv(ctx.Env(), ctx.Clock, ctx.Region(), ctx.Sources, ctx.Dests)
	})
	return f, nil
}

// bfsSolver runs the plain-model Θ(diam) wavefront baseline; the forest
// spans the whole structure, so destinations are ignored.
type bfsSolver struct{}

func (bfsSolver) Name() string { return AlgoBFS }

// HoleTolerant: the wavefront only uses region adjacency, never portals,
// so holes do not affect its correctness.
func (bfsSolver) HoleTolerant() bool { return true }

func (bfsSolver) Solve(ctx *Context) (*amoebot.Forest, error) {
	var f *amoebot.Forest
	ctx.Clock.Phase("bfs", func() {
		f = baseline.BFSForestExec(ctx.Exec(), ctx.Clock, ctx.Region(), ctx.Sources)
	})
	return f, nil
}

// ShareKey groups every bfs query in the batch: the wavefront ignores
// destinations, and distinct source sequences no longer block sharing —
// SolveShared packs up to 64 wavefronts into one MS-BFS-style physical
// sweep (baseline.BFSForestMany), so the whole batch of bfs queries is one
// group regardless of sources.
func (bfsSolver) ShareKey(sources, dests []int32) (string, bool) {
	return "", true
}

// SolveShared answers the group's distinct source sequences as lanes of
// shared multi-source sweeps, then replays each representative's cost onto
// the members that repeat its sources (forests are cloned, so results stay
// independent). Every member's clock is charged exactly what its solo Solve
// charges; the packing only changes host execution.
func (b bfsSolver) SolveShared(ctxs []*Context) ([]*amoebot.Forest, []error) {
	fs := make([]*amoebot.Forest, len(ctxs))
	errs := make([]error, len(ctxs))

	// Distinct source sequences become lane representatives, in first
	// occurrence order (the key preserves source order — the wavefront's
	// claim tie-break depends on it).
	repOf := make(map[string]int, len(ctxs))
	var reps []int
	startR := make([]int64, len(ctxs))
	startB := make([]int64, len(ctxs))
	for i, ctx := range ctxs {
		key := orderedKey(ctx.Sources)
		if _, seen := repOf[key]; !seen {
			repOf[key] = i
			reps = append(reps, i)
			startR[i] = ctx.Clock.Rounds()
			startB[i] = ctx.Clock.Beeps()
		}
	}

	if len(reps) >= 2 {
		// Lane-packed path: chunks of up to MaxBFSLanes representatives run
		// as one physical sweep each. BFSForestMany charges each lane's clock
		// its exact solo layers, so only phase attribution and the packing
		// telemetry are added here.
		const lanes = baseline.MaxBFSLanes
		for lo := 0; lo < len(reps); lo += lanes {
			hi := lo + lanes
			if hi > len(reps) {
				hi = len(reps)
			}
			chunk := reps[lo:hi]
			clocks := make([]*sim.Clock, len(chunk))
			sets := make([][]int32, len(chunk))
			for k, i := range chunk {
				clocks[k] = ctxs[i].Clock
				sets[k] = ctxs[i].Sources
			}
			packed := baseline.BFSForestMany(clocks, ctxs[0].Region(), sets)
			for k, i := range chunk {
				fs[i] = packed[k]
				dr := ctxs[i].Clock.Rounds() - startR[i]
				ctxs[i].Clock.AttributePhase("bfs", dr)
				ctxs[i].lanes.waves++
				ctxs[i].lanes.passes += dr
			}
		}
	} else {
		for _, i := range reps {
			fs[i], errs[i] = b.Solve(ctxs[i])
		}
	}

	// Members repeating a representative's sources replay its cost.
	for i, ctx := range ctxs {
		rep := repOf[orderedKey(ctx.Sources)]
		if rep == i {
			continue
		}
		if errs[rep] != nil {
			errs[i] = errs[rep]
			continue
		}
		dr := ctxs[rep].Clock.Rounds() - startR[rep]
		db := ctxs[rep].Clock.Beeps() - startB[rep]
		ctx.Clock.Tick(dr)
		ctx.Clock.AddBeeps(db)
		ctx.Clock.AttributePhase("bfs", dr)
		fs[i] = fs[rep].Clone()
	}
	return fs, errs
}

// exactSolver is the centralized reference: it builds a canonical
// (S,D)-shortest-path forest from the engine's memoized exact distances.
// It charges no simulated rounds — it is not a distributed algorithm.
type exactSolver struct{}

func (exactSolver) Name() string { return AlgoExact }

// HoleTolerant: the centralized reference is a plain multi-source BFS over
// the region graph; holes do not affect it.
func (exactSolver) HoleTolerant() bool { return true }

func (exactSolver) Solve(ctx *Context) (*amoebot.Forest, error) {
	if err := needDests(ctx, AlgoExact); err != nil {
		return nil, err
	}
	dist := ctx.Engine.exactDistances(ctx.Sources)
	f := baseline.ExactForestFromDist(ctx.Region(), dist, ctx.Sources, ctx.Dests)
	if f == nil {
		return nil, errors.New("engine: exact solver failed to cover a destination")
	}
	return f, nil
}
