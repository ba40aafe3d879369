package engine

import (
	"strconv"
	"strings"
	"time"

	"spforest/amoebot"
	"spforest/internal/sim"
)

// Query names one shortest-path computation for Engine.Run or Engine.Batch.
type Query struct {
	// Algo selects the solver by name (see Solvers). Empty selects
	// AlgoForest.
	Algo string
	// Sources are the source amoebots S. Tree algorithms (spt, spsp,
	// sssp) require exactly one.
	Sources []amoebot.Coord
	// Dests are the destination amoebots D. When given they are always
	// validated against the structure, but sssp (implicitly every
	// amoebot) and bfs (the wavefront spans the structure) do not
	// otherwise use them.
	Dests []amoebot.Coord
	// Tag is an optional caller-chosen identifier echoed in the
	// QueryResult, for correlating batch output with batch input.
	Tag string
}

// QueryResult pairs one batch query with its outcome.
type QueryResult struct {
	// Query is the input query (Tag included) this result answers.
	Query Query
	// Result is the computed forest and simulated cost; nil iff Err is
	// non-nil.
	Result *Result
	// Err is the per-query failure, if any. One failing query does not
	// abort the batch.
	Err error
	// Wall is the host wall-clock time the query took (not a simulated
	// quantity). Queries answered as part of a shared group all report
	// the group's wall; deduplicated queries report the (small) time to
	// materialize their copy of the representative's answer.
	Wall time.Duration
}

// BatchStats aggregates a batch.
type BatchStats struct {
	// Queries is the number of queries in the batch.
	Queries int
	// Failed is the number of queries that returned an error.
	Failed int
	// Deduped is the number of queries answered from an identical earlier
	// query in the same batch (same solver, sources and destinations after
	// resolution) instead of being solved again.
	Deduped int
	// Groups is the number of shared groups the batch planner formed:
	// sets of two or more distinct queries a SharedSolver answered in one
	// pass (see SharedSolver).
	Groups int
	// Rounds and Beeps are summed over all successful queries.
	Rounds int64
	Beeps  int64
	// MaxRounds is the largest per-query round count — the batch's
	// simulated makespan if all queries ran on replicas in parallel.
	MaxRounds int64
	// Phases sums the per-phase round attribution over all successful
	// queries. It is nil when no query succeeded (and empty, non-nil, for
	// an empty batch).
	Phases map[string]int64
	// WavesPacked and LanePasses sum the per-query MS-BFS lane telemetry
	// (Stats.WavesPacked, Stats.LanePasses) over all successful queries;
	// they count bfs lanes only.
	WavesPacked int64
	LanePasses  int64
	// Wall is the host wall-clock time of the whole batch.
	Wall time.Duration
}

// BatchResult is the outcome of Engine.Batch: one QueryResult per input
// query, in input order, plus aggregate statistics.
type BatchResult struct {
	Results []QueryResult
	Stats   BatchStats
}

// Batch answers the queries concurrently on a worker pool bounded by
// Config.Workers (default GOMAXPROCS), each query on its own simulated
// clock. Results come back in input order; individual failures are reported
// per query.
//
// Beyond the per-structure preprocessing Run already shares (validation,
// leader election), Batch plans the whole slice up front and shares work
// across queries:
//
//   - exact duplicates (same solver, same resolved sources and
//     destinations) are solved once; the other occurrences receive
//     independent copies of the answer, with stats matching what their own
//     Run would have reported (Stats.Deduped counts them);
//   - queries a SharedSolver recognizes as groupable (e.g. single-source
//     tree queries against the same destination set) are answered in one
//     shared pass over the portal decompositions (Stats.Groups counts the
//     groups).
//
// Sharing never changes answers: forests and per-query simulated stats are
// bit-identical to running each query alone, at every worker count.
func (e *Engine) Batch(queries []Query) *BatchResult {
	if len(queries) == 0 {
		// Degenerate batch (nil or empty slice): consistent zero-value
		// stats, no worker pool, no wall-clock noise.
		return &BatchResult{
			Results: []QueryResult{},
			Stats:   BatchStats{Phases: map[string]int64{}},
		}
	}
	if len(queries) == 1 {
		// Single-query fast path: no planning pass, no worker pool, one
		// time.Now bracket shared between the query and the batch. The
		// stats still come from the shared aggregation loop, so both paths
		// report one shape.
		start := time.Now()
		res, err := e.Run(queries[0])
		wall := time.Since(start)
		out := &BatchResult{
			Results: []QueryResult{{Query: queries[0], Result: res, Err: err, Wall: wall}},
		}
		out.Stats = aggregateStats(out.Results)
		out.Stats.Wall = wall
		return out
	}

	start := time.Now()
	out := &BatchResult{Results: make([]QueryResult, len(queries))}

	// Plan: resolve every query once, up front. Planning failures are
	// final — the query executes nothing and its result is ready now.
	plans := make([]plannedQuery, len(queries))
	for i := range queries {
		planStart := time.Now()
		plans[i] = e.planQuery(queries[i])
		if plans[i].err != nil {
			out.Results[i] = QueryResult{Query: queries[i], Err: plans[i].err, Wall: time.Since(planStart)}
		}
	}

	// Dedupe: identical planned queries (solver + exact resolved source and
	// destination sequences) collapse onto their first occurrence.
	firstOf := make(map[string]int, len(queries))
	var dups []int
	for i := range plans {
		if plans[i].err != nil {
			continue
		}
		key := plans[i].solver.Name() + "|" + orderedKey(plans[i].srcs) + "|" + orderedKey(plans[i].dests)
		if j, seen := firstOf[key]; seen {
			plans[i].dup = j
			dups = append(dups, i)
		} else {
			firstOf[key] = i
		}
	}

	// Group: distinct representatives whose solver can share work form
	// groups by ShareKey. Only groups of two or more are worth a shared
	// pass; singletons go back to the solo path.
	type shareGroup struct {
		shared  SharedSolver
		members []int // plan indices, ascending
	}
	shareIdx := make(map[string]int)
	var shares []shareGroup
	for i := range plans {
		if plans[i].err != nil || plans[i].dup >= 0 {
			continue
		}
		if ss, ok := sharedSolver(plans[i].solver); ok {
			if key, ok := ss.ShareKey(plans[i].srcs, plans[i].dests); ok {
				full := plans[i].solver.Name() + "\x00" + key
				if gi, seen := shareIdx[full]; seen {
					shares[gi].members = append(shares[gi].members, i)
				} else {
					shareIdx[full] = len(shares)
					shares = append(shares, shareGroup{shared: ss, members: []int{i}})
				}
			}
		}
	}

	// Emit dispatch units in ascending index order of their first query:
	// solos (including singleton share groups) and whole groups.
	type batchUnit struct {
		solo   int   // plan index; -1 for a group unit
		group  []int // member plan indices, ascending
		shared SharedSolver
	}
	grouped := make(map[int]int, len(shares)) // first member -> share index
	inGroup := make(map[int]bool)
	var groups int
	for gi, g := range shares {
		if len(g.members) < 2 {
			continue
		}
		groups++
		grouped[g.members[0]] = gi
		for _, m := range g.members {
			inGroup[m] = true
		}
	}
	units := make([]batchUnit, 0, len(queries))
	for i := range plans {
		if plans[i].err != nil || plans[i].dup >= 0 {
			continue
		}
		if gi, lead := grouped[i]; lead || !inGroup[i] {
			if inGroup[i] {
				units = append(units, batchUnit{solo: -1, group: shares[gi].members, shared: shares[gi].shared})
			} else {
				units = append(units, batchUnit{solo: i})
			}
		}
	}

	// Dispatch: units spread over the batch executor in dynamically claimed
	// index chunks (one synchronization per chunk, not one channel hand-off
	// per query). Each unit writes only its own result slots.
	chunk := len(units) / (e.workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	e.batchExec.ForChunks(len(units), chunk, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			unit := &units[u]
			if unit.solo >= 0 {
				i := unit.solo
				qStart := time.Now()
				res, err := e.runPlanned(&plans[i])
				out.Results[i] = QueryResult{Query: queries[i], Result: res, Err: err, Wall: time.Since(qStart)}
				continue
			}
			gStart := time.Now()
			ctxs := make([]*Context, len(unit.group))
			clocks := make([]sim.Clock, len(unit.group))
			for k, i := range unit.group {
				ctxs[k] = e.newContext(&clocks[k], plans[i].srcs, plans[i].dests)
			}
			fs, errs := unit.shared.SolveShared(ctxs)
			wall := time.Since(gStart)
			for k, i := range unit.group {
				if errs[k] != nil {
					out.Results[i] = QueryResult{Query: queries[i], Err: errs[k], Wall: wall}
					continue
				}
				out.Results[i] = QueryResult{
					Query:  queries[i],
					Result: &Result{Forest: fs[k], Stats: ctxs[k].stats()},
					Wall:   wall,
				}
			}
		}
	})

	// Fill duplicates from their representatives: independent forest copies
	// and stats matching what the duplicate's own Run would have reported
	// (the representative may have paid the one-off leader election; a
	// repeat of the same query would not, so that cost is stripped).
	e.batchExec.ForChunks(len(dups), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := dups[k]
			dStart := time.Now()
			rep := &out.Results[plans[i].dup]
			if rep.Err != nil {
				out.Results[i] = QueryResult{Query: queries[i], Err: rep.Err, Wall: time.Since(dStart)}
				continue
			}
			st := rep.Result.Stats
			st.Phases = make(map[string]int64, len(rep.Result.Stats.Phases))
			for name, rounds := range rep.Result.Stats.Phases {
				st.Phases[name] = rounds
			}
			// Strip what the representative actually recorded, not what the
			// engine's one-off election cost: the two agree on an engine that
			// elected its own leader, but a migrated engine (leader inherited
			// across Apply, preprocessing attributed via Warm or Leader) can
			// carry prepStats that diverge from the phase the representative
			// was charged — subtracting prepStats would then silently
			// underflow the totals. Beeps have no per-phase attribution, so
			// the election beep charge is stripped only when the recorded
			// phase provably is the election (it matches prepStats).
			if p := st.Phases["preprocess"]; p > 0 {
				st.Rounds -= p
				if p == e.prepStats.Rounds {
					st.Beeps -= e.prepStats.Beeps
				}
				delete(st.Phases, "preprocess")
			}
			out.Results[i] = QueryResult{
				Query:  queries[i],
				Result: &Result{Forest: rep.Result.Forest.Clone(), Stats: st},
				Wall:   time.Since(dStart),
			}
		}
	})

	out.Stats = aggregateStats(out.Results)
	out.Stats.Deduped = len(dups)
	out.Stats.Groups = groups
	out.Stats.Wall = time.Since(start)
	return out
}

// orderedKey serializes an index sequence preserving order. Dedupe keys use
// it for both sides (only literally identical queries collapse); solvers
// whose outputs depend on sequence order (multi-source BFS claims) use it
// as their ShareKey.
func orderedKey(ids []int32) string {
	var b strings.Builder
	b.Grow(4 * len(ids))
	for _, id := range ids {
		b.WriteString(strconv.Itoa(int(id)))
		b.WriteByte(',')
	}
	return b.String()
}

// aggregateStats folds per-query results into the batch aggregate (Wall is
// the caller's, measured around its own bracket). The phase map is
// allocated lazily, pre-sized from the first successful result: an
// all-failed batch allocates nothing.
func aggregateStats(results []QueryResult) BatchStats {
	st := BatchStats{Queries: len(results)}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			st.Failed++
			continue
		}
		st.Rounds += r.Result.Stats.Rounds
		st.Beeps += r.Result.Stats.Beeps
		st.WavesPacked += r.Result.Stats.WavesPacked
		st.LanePasses += r.Result.Stats.LanePasses
		if r.Result.Stats.Rounds > st.MaxRounds {
			st.MaxRounds = r.Result.Stats.Rounds
		}
		if len(r.Result.Stats.Phases) > 0 {
			if st.Phases == nil {
				st.Phases = make(map[string]int64, len(r.Result.Stats.Phases))
			}
			for name, rounds := range r.Result.Stats.Phases {
				st.Phases[name] += rounds
			}
		}
	}
	return st
}
