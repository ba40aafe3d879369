package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/shapes"
)

// TestApplyEmptyDeltaReturnsReceiver pins the empty-delta short-circuit:
// no new engine, no generation bump, and every warmed memo — leader,
// portals, views, distances — served as-is, because the receiver IS the
// same-structure engine.
func TestApplyEmptyDeltaReturnsReceiver(t *testing.T) {
	e, err := engine.New(spforest.Hexagon(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	srcs := spforest.RandomCoords(1, e.Structure(), 2)
	if _, err := e.Distances(srcs); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	ne, err := e.Apply(amoebot.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if ne != e {
		t.Fatal("empty delta built a new engine")
	}
	if ne.Generation() != e.Generation() {
		t.Fatal("empty delta bumped the generation")
	}
	after := ne.CacheStats()
	if after != before {
		t.Fatalf("empty delta disturbed the caches: %+v -> %+v", before, after)
	}
	res, err := ne.Run(engine.Query{Sources: srcs, Dests: ne.Structure().Coords()})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Stats.Phases["preprocess"]; p != 0 {
		t.Fatalf("warmed engine charged %d preprocess rounds after empty Apply", p)
	}
}

func TestApplyRejectsInvalidDelta(t *testing.T) {
	e, err := engine.New(spforest.Line(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Removing the middle disconnects the line.
	if _, err := e.Apply(amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(2, 0)}}); err == nil {
		t.Fatal("disconnecting delta accepted")
	}
}

// TestApplyLeaderSurvives: a delta that keeps the elected leader's amoebot
// hands the leader to the derived engine — same coordinate, zero election
// rounds on every derived query.
func TestApplyLeaderSurvives(t *testing.T) {
	s := spforest.RandomBlob(7, 200)
	e, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ldr, stats := e.Leader()
	if stats.Rounds == 0 {
		t.Fatal("election charged nothing")
	}
	d := shapes.RandomDelta(rand.New(rand.NewSource(1)), s, 4, 4, ldr)
	ne, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", ne.Generation())
	}
	ldr2, stats2 := ne.Leader()
	if ldr2 != ldr {
		t.Fatalf("leader moved: %v -> %v", ldr, ldr2)
	}
	if stats2.Rounds != 0 {
		t.Fatalf("derived engine re-charged %d election rounds", stats2.Rounds)
	}
	sources := spforest.RandomCoords(3, ne.Structure(), 3)
	res, err := ne.Run(engine.Query{Sources: sources, Dests: ne.Structure().Coords()})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Stats.Phases["preprocess"]; p != 0 {
		t.Fatalf("derived query charged %d preprocess rounds", p)
	}
	if err := ne.Verify(sources, ne.Structure().Coords(), res.Forest); err != nil {
		t.Fatal(err)
	}
}

// TestApplyLeaderRemoved: removing the elected leader's amoebot sends the
// derived engine back to lazy election — the next query pays preprocess.
func TestApplyLeaderRemoved(t *testing.T) {
	// A filled triangle: every amoebot is removable, so the elected leader
	// can always be deleted, whichever one won.
	s := amoebot.MustStructure([]amoebot.Coord{
		amoebot.XZ(0, 0), amoebot.XZ(1, 0), amoebot.XZ(0, 1),
	})
	e, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ldr, _ := e.Leader()
	ne, err := e.Apply(amoebot.Delta{Remove: []amoebot.Coord{ldr}})
	if err != nil {
		t.Fatal(err)
	}
	src := ne.Structure().Coords()[:1]
	res, err := ne.Run(engine.Query{Sources: src, Dests: ne.Structure().Coords()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phases["preprocess"] == 0 {
		t.Fatal("derived engine did not re-elect after losing its leader")
	}
}

// TestApplyExplicitLeader: a configured Config.Leader survives by
// coordinate; if its amoebot is removed, the derived engine clears the
// designation and elects lazily.
func TestApplyExplicitLeader(t *testing.T) {
	s := spforest.Hexagon(2)
	tip := amoebot.XZ(-2, 0)
	e, err := engine.New(s, &engine.Config{Leader: &tip})
	if err != nil {
		t.Fatal(err)
	}
	survived, err := e.Apply(amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(3, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if ldr, stats := survived.Leader(); ldr != tip || stats.Rounds != 0 {
		t.Fatalf("configured leader not carried: %v %v", ldr, stats)
	}
	removed, err := e.Apply(amoebot.Delta{Remove: []amoebot.Coord{tip}})
	if err != nil {
		t.Fatal(err)
	}
	if ldr, stats := removed.Leader(); stats.Rounds == 0 {
		t.Fatalf("removed configured leader %v still free (%v)", ldr, stats)
	}
}

// TestApplyDistanceEviction: Apply carries no distance entry, not even
// one whose source survives the delta; the derived engine computes it on
// first use and agrees with a fresh engine.
func TestApplyDistanceEviction(t *testing.T) {
	s := spforest.Triangle(4)
	e, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	doomed := amoebot.XZ(3, 0) // triangle corner: removable
	kept := amoebot.XZ(0, 0)
	if _, err := e.Distances([]amoebot.Coord{doomed}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Distances([]amoebot.Coord{kept}); err != nil {
		t.Fatal(err)
	}
	ne, err := e.Apply(amoebot.Delta{Remove: []amoebot.Coord{doomed}})
	if err != nil {
		t.Fatal(err)
	}
	if n := ne.CacheStats().DistEntries; n != 0 {
		t.Fatalf("derived engine starts with %d distance entries, want 0", n)
	}
	got, err := ne.Distances([]amoebot.Coord{kept})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engine.New(ne.Structure(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Distances([]amoebot.Coord{kept})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("derived distances wrong at %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestIncrementalAmortization is the acceptance check of the delta path:
// along a mutation chain that spares the leader and the sources, every
// derived engine charges zero election rounds (the saving over a fresh
// rebuild, which re-elects every time) while answering exactly like a
// fresh engine.
func TestIncrementalAmortization(t *testing.T) {
	s := spforest.RandomBlob(9, 300)
	sources := spforest.RandomCoords(2, s, 4)
	e, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ldr, _ := e.Leader() // pre-pay the one election of the whole chain

	rng := rand.New(rand.NewSource(21))
	protect := append(append([]amoebot.Coord(nil), sources...), ldr)
	const steps = 5
	var incrRounds, freshRounds, freshElection int64
	cur := e
	for step := 0; step < steps; step++ {
		d := shapes.RandomDelta(rng, cur.Structure(), 3, 3, protect...)
		ne, err := cur.Apply(d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		q := engine.Query{Sources: sources, Dests: ne.Structure().Coords()}
		res, err := ne.Run(q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if p := res.Stats.Phases["preprocess"]; p != 0 {
			t.Fatalf("step %d: derived engine charged %d election rounds", step, p)
		}
		incrRounds += res.Stats.Rounds

		got, err := ne.Distances(sources)
		if err != nil {
			t.Fatal(err)
		}

		// A fresh rebuild answers identically but pays a new election.
		fresh, err := engine.New(ne.Structure(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := fresh.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		p := fres.Stats.Phases["preprocess"]
		if p == 0 {
			t.Fatalf("step %d: fresh rebuild charged no election", step)
		}
		freshRounds += fres.Stats.Rounds
		freshElection += p
		want, err := fresh.Distances(sources)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: distance mismatch at node %d: %d != %d", step, i, got[i], want[i])
			}
		}
		if err := ne.Verify(sources, ne.Structure().Coords(), res.Forest); err != nil {
			t.Fatalf("step %d: incremental forest invalid: %v", step, err)
		}
		if err := fresh.Verify(sources, ne.Structure().Coords(), fres.Forest); err != nil {
			t.Fatalf("step %d: fresh forest invalid: %v", step, err)
		}
		cur = ne
	}
	if cur.Generation() != steps {
		t.Fatalf("generation = %d, want %d", cur.Generation(), steps)
	}
	if incrRounds >= freshRounds {
		t.Fatalf("incremental chain (%d rounds) not cheaper than fresh rebuilds (%d rounds, %d of them elections)",
			incrRounds, freshRounds, freshElection)
	}
}

// TestApplyConcurrentWithQueries: deriving engines while the parent serves
// a batch must be race-free, and both engines stay correct.
func TestApplyConcurrentWithQueries(t *testing.T) {
	s := spforest.RandomBlob(3, 150)
	e, err := engine.New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	sources := spforest.RandomCoords(5, s, 3)
	queries := make([]engine.Query, 8)
	for i := range queries {
		queries[i] = engine.Query{Sources: sources, Dests: s.Coords()}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch := e.Batch(queries)
		for _, r := range batch.Results {
			if r.Err != nil {
				t.Error(r.Err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(8))
		cur := e
		for i := 0; i < 4; i++ {
			d := shapes.RandomDelta(rng, cur.Structure(), 2, 2, sources...)
			ne, err := cur.Apply(d)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ne.Run(engine.Query{Sources: sources, Dests: ne.Structure().Coords()}); err != nil {
				t.Error(err)
				return
			}
			cur = ne
		}
	}()
	wg.Wait()
}
