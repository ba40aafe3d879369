// Shape reconfiguration routing (paper §1, after Kostitsyna et al.):
// amoebots that must relocate (the destinations) each need a shortest path
// to their nearest docking point (the sources); the shortest path forest
// provides the routing structure.
//
// Reconfiguration is inherently dynamic — executing the routes changes the
// structure — so this example drives the delta path end to end: an initial
// forest query on a shared engine, then a churn loop in which the
// structure sheds tail cells and grows dock-side cells. Each mutation
// derives the next engine incrementally (engine.Apply via the service
// pool): the elected leader survives every delta, so no re-election is
// ever charged.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/shapes"
	"spforest/service"
)

func main() {
	// A comb structure: moderate n but large diameter, the regime where
	// the reconfigurable-circuit algorithms overtake the wavefront.
	s := spforest.Comb(16, 800)
	fmt.Printf("structure: %d amoebots (comb, 16 teeth of length 800)\n", s.N())

	// Docking points on four teeth tips, movers sampled everywhere.
	sources := spforest.RandomCoords(3, s, 4)
	movers := spforest.RandomCoords(4, s, 24)

	// One pooled engine; the three algorithm backends run concurrently on
	// a worker pool, each on its own simulated clock.
	svc := service.New(nil)
	batch, err := svc.Batch(s, []engine.Query{
		{Tag: "divide & conquer (Thm 56)", Algo: engine.AlgoForest, Sources: sources, Dests: movers},
		{Tag: "sequential merge (§5)", Algo: engine.AlgoSequential, Sources: sources, Dests: movers},
		{Tag: "BFS wavefront (plain)", Algo: engine.AlgoBFS, Sources: sources},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("algorithm                     rounds")
	for _, r := range batch.Results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("%-25s %10d\n", r.Query.Tag, r.Result.Stats.Rounds)
	}
	dnc := batch.Results[0].Result
	if err := spforest.Verify(s, sources, movers, dnc.Forest); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, m := range movers {
		i, _ := s.Index(m)
		total += dnc.Forest.Depth(i)
	}
	fmt.Printf("movers: %d, total route length: %d steps\n", len(movers), total)

	// Churn: six reconfiguration rounds, each moving eight cells (shed
	// anywhere, regrow near the docks), querying the forest after every
	// delta. The service derives each engine from its predecessor.
	fmt.Println("\nreconfiguration churn (8 cells moved per round):")
	fmt.Println("round        n   forest rounds   re-election rounds")
	rng := rand.New(rand.NewSource(7))
	ldr, _, err := svc.Leader(s) // already elected by the batch; memoized
	if err != nil {
		log.Fatal(err)
	}
	keep := append(append([]amoebot.Coord(nil), sources...), movers...)
	keep = append(keep, ldr)
	for round := 1; round <= 6; round++ {
		delta := shapes.RandomDelta(rng, s, 8, 8, keep...)
		ns, err := svc.Mutate(s, delta)
		if err != nil {
			log.Fatal(err)
		}
		res, err := svc.Query(ns, engine.Query{
			Algo: engine.AlgoForest, Sources: sources, Dests: movers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d %8d %15d %20d\n",
			round, ns.N(), res.Stats.Rounds, res.Stats.Phases["preprocess"])
		s = ns
	}
	st := svc.Stats()
	fmt.Printf("pool: %d engines, %d hits, %d misses, %d evictions\n",
		st.Engines, st.Hits, st.Misses, st.Evictions)
	fmt.Println("(every churn round reuses the leader elected before round 1:")
	fmt.Println(" zero re-election rounds — the engine survives the mutation)")
}
