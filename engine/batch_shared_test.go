package engine_test

import (
	"math/rand"
	"runtime"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/baseline"
	"spforest/internal/shapes"
)

// TestBatchDedupesIdenticalQueries: identical queries in one batch are
// solved once, but every occurrence gets an independent QueryResult — its
// own tag, its own forest copy, its own phase map — with stats matching
// what running the query again would have reported (no election charge).
func TestBatchDedupesIdenticalQueries(t *testing.T) {
	s := spforest.RandomBlob(27, 260)
	sources := spforest.RandomCoords(3, s, 5)
	tags := []string{"a", "b", "c", "d", "e", "f"}
	queries := make([]engine.Query, len(tags))
	for i, tag := range tags {
		queries[i] = engine.Query{Tag: tag, Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}
	}

	e, err := engine.New(s, &engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := e.Batch(queries)
	if batch.Stats.Deduped != len(tags)-1 {
		t.Fatalf("Deduped = %d, want %d", batch.Stats.Deduped, len(tags)-1)
	}
	if batch.Stats.Groups != 0 {
		t.Fatalf("Groups = %d, want 0 (a single representative forms no group)", batch.Stats.Groups)
	}

	// Reference: the same query run twice on a fresh engine. The first run
	// pays the election, every repeat costs repeatStats.
	ref, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ref.Run(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := ref.Run(queries[0])
	if err != nil {
		t.Fatal(err)
	}

	var elections int
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", tags[i], r.Err)
		}
		if r.Query.Tag != tags[i] {
			t.Fatalf("result %d carries tag %q, want %q", i, r.Query.Tag, tags[i])
		}
		if r.Wall <= 0 {
			t.Fatalf("%s: zero wall time", tags[i])
		}
		want := repeat.Stats
		if p := r.Result.Stats.Phases["preprocess"]; p > 0 {
			elections++
			want = first.Stats
		}
		if r.Result.Stats.Rounds != want.Rounds || r.Result.Stats.Beeps != want.Beeps {
			t.Fatalf("%s: stats %d rounds / %d beeps, want %d / %d",
				tags[i], r.Result.Stats.Rounds, r.Result.Stats.Beeps, want.Rounds, want.Beeps)
		}
		for n := int32(0); n < int32(s.N()); n++ {
			if r.Result.Forest.Parent(n) != first.Forest.Parent(n) {
				t.Fatalf("%s: parent mismatch at node %d", tags[i], n)
			}
		}
	}
	if elections != 1 {
		t.Fatalf("%d queries paid for leader election, want exactly 1", elections)
	}

	// Independence: mutating one result's forest or phase map must not leak
	// into any other occurrence.
	r0, r1 := batch.Results[0], batch.Results[1]
	probe := r1.Result.Forest.Parent(0)
	r0.Result.Forest.SetRoot(0)
	if r1.Result.Forest.Parent(0) != probe {
		t.Fatal("duplicate results share a forest")
	}
	r0.Result.Stats.Phases["forest"] = -1
	if r1.Result.Stats.Phases["forest"] == -1 {
		t.Fatal("duplicate results share a phase map")
	}
}

// TestBatchDedupeElectionStripMatchesPrep: whenever a representative's
// stats carry a positive "preprocess" phase, that recorded value must be
// exactly the engine's one-off election cost — the invariant the
// duplicate-fill relies on when it strips the election charge from the
// copies. Runs under -race in CI alongside the concurrent dispatch.
func TestBatchDedupeElectionStripMatchesPrep(t *testing.T) {
	s := spforest.RandomBlob(41, 240)
	sources := spforest.RandomCoords(7, s, 4)
	q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: s.Coords()}

	e, err := engine.New(s, &engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := e.Batch([]engine.Query{q, q, q, q})
	if batch.Stats.Deduped != 3 {
		t.Fatalf("Deduped = %d, want 3", batch.Stats.Deduped)
	}
	_, prep := e.Leader()
	var positive int
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if p := r.Result.Stats.Phases["preprocess"]; p > 0 {
			positive++
			if p != prep.Rounds {
				t.Fatalf("query %d: recorded preprocess phase %d != election cost %d", i, p, prep.Rounds)
			}
		}
	}
	if positive != 1 {
		t.Fatalf("%d results carry a positive preprocess phase, want exactly 1 (the representative)", positive)
	}
}

// TestBatchDedupeOnChurnedEngine: the duplicate-fill on a migrated engine
// (built by Apply, leader inherited, preprocessing attributed via Warm)
// must report dedupe stats identical to a repeat Run on that engine — in
// particular the election strip must not underflow the totals by
// subtracting a charge no query on this engine ever paid.
func TestBatchDedupeOnChurnedEngine(t *testing.T) {
	s := spforest.RandomBlob(43, 260)
	sources := spforest.RandomCoords(9, s, 4)

	parent, err := engine.New(s, &engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	parent.Warm() // election paid here, before any query records a phase

	d := shapes.RandomDelta(rand.New(rand.NewSource(11)), s, 4, 4, sources...)
	child, err := parent.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	child.Warm()
	ns := child.Structure()
	q := engine.Query{Algo: engine.AlgoForest, Sources: sources, Dests: ns.Coords()}

	want, err := child.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if p := want.Stats.Phases["preprocess"]; p != 0 {
		t.Fatalf("warmed churned engine charged a %d-round preprocess phase to a query", p)
	}

	batch := child.Batch([]engine.Query{q, q, q})
	if batch.Stats.Deduped != 2 {
		t.Fatalf("Deduped = %d, want 2", batch.Stats.Deduped)
	}
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		gs := r.Result.Stats
		if gs.Rounds != want.Stats.Rounds || gs.Beeps != want.Stats.Beeps {
			t.Fatalf("query %d: %d rounds / %d beeps, repeat Run %d / %d",
				i, gs.Rounds, gs.Beeps, want.Stats.Rounds, want.Stats.Beeps)
		}
		if gs.Rounds < 0 || gs.Beeps < 0 {
			t.Fatalf("query %d: negative totals %d rounds / %d beeps (election strip underflow)", i, gs.Rounds, gs.Beeps)
		}
		if _, ok := gs.Phases["preprocess"]; ok {
			t.Fatalf("query %d: unexpected preprocess phase on a churned engine", i)
		}
	}
}

// TestBatchGroupedMatchesSolo: queries a SharedSolver answers in one group
// pass must come back bit-identical — forests and per-query simulated
// stats — to running each query alone, at every worker count.
func TestBatchGroupedMatchesSolo(t *testing.T) {
	s := spforest.RandomBlob(31, 340)
	srcs := spforest.RandomCoords(5, s, 9)
	dests := spforest.RandomCoords(8, s, 11)

	var queries []engine.Query
	for _, src := range srcs {
		queries = append(queries, engine.Query{Algo: engine.AlgoSPT, Sources: []amoebot.Coord{src}, Dests: dests})
	}
	for _, src := range srcs[:3] {
		queries = append(queries, engine.Query{Algo: engine.AlgoSSSP, Sources: []amoebot.Coord{src}})
	}

	for _, iw := range []int{1, runtime.GOMAXPROCS(0)} {
		solo, err := engine.New(s, &engine.Config{IntraWorkers: iw})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*engine.Result, len(queries))
		for i, q := range queries {
			if want[i], err = solo.Run(q); err != nil {
				t.Fatal(err)
			}
		}

		e, err := engine.New(s, &engine.Config{Workers: 4, IntraWorkers: iw})
		if err != nil {
			t.Fatal(err)
		}
		batch := e.Batch(queries)
		if batch.Stats.Groups != 2 {
			t.Fatalf("IntraWorkers=%d: Groups = %d, want 2 (spt and sssp)", iw, batch.Stats.Groups)
		}
		if batch.Stats.Deduped != 0 {
			t.Fatalf("IntraWorkers=%d: Deduped = %d, want 0", iw, batch.Stats.Deduped)
		}
		for i, r := range batch.Results {
			if r.Err != nil {
				t.Fatalf("query %d: %v", i, r.Err)
			}
			ws, gs := want[i].Stats, r.Result.Stats
			if gs.Rounds != ws.Rounds || gs.Beeps != ws.Beeps {
				t.Fatalf("IntraWorkers=%d query %d: grouped stats %d rounds / %d beeps, solo %d / %d",
					iw, i, gs.Rounds, gs.Beeps, ws.Rounds, ws.Beeps)
			}
			if len(gs.Phases) != len(ws.Phases) {
				t.Fatalf("IntraWorkers=%d query %d: phases %v, solo %v", iw, i, gs.Phases, ws.Phases)
			}
			for name, rounds := range ws.Phases {
				if gs.Phases[name] != rounds {
					t.Fatalf("IntraWorkers=%d query %d: phase %s = %d, solo %d",
						iw, i, name, gs.Phases[name], rounds)
				}
			}
			for n := int32(0); n < int32(s.N()); n++ {
				if r.Result.Forest.Parent(n) != want[i].Forest.Parent(n) {
					t.Fatalf("IntraWorkers=%d query %d: parent mismatch at node %d", iw, i, n)
				}
			}
		}
	}
}

// TestBatchGroupsBFSAcrossDests: the wavefront baseline ignores
// destinations, so bfs queries differing only in Dests share one solve —
// and still answer with independent, solo-identical results.
func TestBatchGroupsBFSAcrossDests(t *testing.T) {
	s := spforest.RandomBlob(23, 220)
	sources := spforest.RandomCoords(2, s, 7)
	destsA := spforest.RandomCoords(4, s, 13)
	destsB := spforest.RandomCoords(6, s, 17)
	queries := []engine.Query{
		{Tag: "a", Algo: engine.AlgoBFS, Sources: sources, Dests: destsA},
		{Tag: "b", Algo: engine.AlgoBFS, Sources: sources, Dests: destsB},
		{Tag: "c", Algo: engine.AlgoBFS, Sources: sources},
	}

	solo, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*engine.Result, len(queries))
	for i, q := range queries {
		if want[i], err = solo.Run(q); err != nil {
			t.Fatal(err)
		}
	}

	e, err := engine.New(s, &engine.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := e.Batch(queries)
	if batch.Stats.Groups != 1 {
		t.Fatalf("Groups = %d, want 1", batch.Stats.Groups)
	}
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Query.Tag, r.Err)
		}
		if r.Result.Stats.Rounds != want[i].Stats.Rounds || r.Result.Stats.Beeps != want[i].Stats.Beeps {
			t.Fatalf("%s: %d rounds / %d beeps, solo %d / %d", r.Query.Tag,
				r.Result.Stats.Rounds, r.Result.Stats.Beeps, want[i].Stats.Rounds, want[i].Stats.Beeps)
		}
		for n := int32(0); n < int32(s.N()); n++ {
			if r.Result.Forest.Parent(n) != want[i].Forest.Parent(n) {
				t.Fatalf("%s: parent mismatch at node %d", r.Query.Tag, n)
			}
		}
	}
	// Group members must not share the forest.
	probe := batch.Results[1].Result.Forest.Parent(0)
	batch.Results[0].Result.Forest.SetRoot(0)
	if batch.Results[1].Result.Forest.Parent(0) != probe {
		t.Fatal("grouped results share a forest")
	}
}

// TestBatchLanePackedBFSMatchesSolo: bfs queries with DIFFERENT source sets
// form one group and run as lanes of shared MS-BFS sweeps. Forests, rounds
// and beeps must stay bit-identical to per-query solo Runs; only the
// packing telemetry differs.
func TestBatchLanePackedBFSMatchesSolo(t *testing.T) {
	s := spforest.RandomBlob(37, 300)
	var queries []engine.Query
	for i := 0; i < 9; i++ {
		srcs := spforest.RandomCoords(int64(100+i), s, 1+i%3)
		queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: srcs})
	}
	// A repeated source set exercises the replay path inside the group.
	queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: queries[0].Sources, Dests: s.Coords()})
	batch := checkBFSBatchMatchesSolo(t, s, queries)
	if batch.Stats.WavesPacked < 9 {
		t.Fatalf("packed %d waves, want ≥ 9 (one per distinct source set)", batch.Stats.WavesPacked)
	}
	if batch.Stats.LanePasses == 0 {
		t.Fatal("reported zero lane passes")
	}
}

// TestBatchLanePackedBFSTwoSweeps covers the sweep boundary: more distinct
// bfs source sets than one MS-BFS sweep carries (baseline.MaxBFSLanes) run
// as two sweeps, every query still bit-identical to its solo Run, and every
// distinct source set counted as exactly one packed wave.
func TestBatchLanePackedBFSTwoSweeps(t *testing.T) {
	s := spforest.RandomBlob(41, 300)
	coords := s.Coords()
	const distinct = baseline.MaxBFSLanes + 6
	var queries []engine.Query
	for i := 0; i < distinct; i++ {
		srcs := []amoebot.Coord{coords[i]}
		if i%5 == 0 {
			srcs = append(srcs, coords[len(coords)-1-i]) // some multi-source sets
		}
		queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: srcs})
	}
	// Replays (same sources, other destinations) of one member per sweep.
	for _, i := range []int{3, distinct - 1} {
		queries = append(queries, engine.Query{Algo: engine.AlgoBFS, Sources: queries[i].Sources, Dests: coords[:1]})
	}
	batch := checkBFSBatchMatchesSolo(t, s, queries)
	if batch.Stats.WavesPacked != distinct {
		t.Fatalf("packed %d waves, want %d (one per distinct source set)", batch.Stats.WavesPacked, distinct)
	}
	for i, r := range batch.Results {
		want := int64(1) // a representative rides one lane
		if i >= distinct {
			want = 0 // a replay reuses its representative's lane
		}
		if r.Result.Stats.WavesPacked != want {
			t.Fatalf("query %d: WavesPacked %d, want %d", i, r.Result.Stats.WavesPacked, want)
		}
	}
}

// checkBFSBatchMatchesSolo answers the bfs queries once by solo Runs and
// once as one Batch, requiring a single group whose every member matches
// its solo Run: forest, rounds, beeps and bfs phase.
func checkBFSBatchMatchesSolo(t *testing.T, s *amoebot.Structure, queries []engine.Query) *engine.BatchResult {
	t.Helper()
	solo, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*engine.Result, len(queries))
	for i, q := range queries {
		if want[i], err = solo.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	e, err := engine.New(s, &engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := e.Batch(queries)
	if batch.Stats.Groups != 1 {
		t.Fatalf("Groups = %d, want 1 (all bfs queries share)", batch.Stats.Groups)
	}
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		ws, gs := want[i].Stats, r.Result.Stats
		if gs.Rounds != ws.Rounds || gs.Beeps != ws.Beeps {
			t.Fatalf("query %d: %d rounds / %d beeps, solo %d / %d", i, gs.Rounds, gs.Beeps, ws.Rounds, ws.Beeps)
		}
		if gs.Phases["bfs"] != ws.Phases["bfs"] {
			t.Fatalf("query %d: bfs phase %d, solo %d", i, gs.Phases["bfs"], ws.Phases["bfs"])
		}
		for n := int32(0); n < int32(s.N()); n++ {
			if r.Result.Forest.Parent(n) != want[i].Forest.Parent(n) {
				t.Fatalf("query %d: parent mismatch at node %d", i, n)
			}
		}
	}
	return batch
}

// TestLaneTelemetryCountsBFSOnly: Stats.WavesPacked and LanePasses count
// MS-BFS lanes only. Forest and sequential queries evaluate their PASC
// executions in closed form and report 0, alone and inside a Batch, while
// the batch's bfs queries still count one wave each.
func TestLaneTelemetryCountsBFSOnly(t *testing.T) {
	s := spforest.RandomBlob(43, 300)
	var queries []engine.Query
	for i := 0; i < 3; i++ {
		srcs := spforest.RandomCoords(int64(200+i), s, 4)
		queries = append(queries,
			engine.Query{Algo: engine.AlgoForest, Sources: srcs, Dests: s.Coords()},
			engine.Query{Algo: engine.AlgoSequential, Sources: srcs, Dests: s.Coords()},
			engine.Query{Algo: engine.AlgoBFS, Sources: srcs})
	}
	e, err := engine.New(s, &engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range e.Batch(queries).Results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want := int64(0)
		if r.Query.Algo == engine.AlgoBFS {
			want = 1
		}
		if st := r.Result.Stats; st.WavesPacked != want || (want == 0) != (st.LanePasses == 0) {
			t.Fatalf("query %d (%s): WavesPacked %d, LanePasses %d; want %d waves", i, r.Query.Algo, st.WavesPacked, st.LanePasses, want)
		}
	}
	for _, q := range queries[:2] {
		res, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WavesPacked != 0 || res.Stats.LanePasses != 0 {
			t.Fatalf("%s run: WavesPacked %d, LanePasses %d; want 0", q.Algo, res.Stats.WavesPacked, res.Stats.LanePasses)
		}
	}
}
