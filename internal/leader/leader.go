// Package leader implements the randomized leader election of Feldmann et
// al. on a global circuit (paper Theorem 2): all amoebots start as
// candidates; in every phase each candidate tosses a fair coin, the
// heads beep on the global circuit, and every tails candidate that hears a
// beep withdraws. A second beep round per phase (all remaining candidates)
// lets the structure detect progress. After Θ(log n) phases w.h.p. exactly
// one candidate remains; uniqueness is confirmed by the boundary-counting
// subprotocol of [17], which we account as a constant number of additional
// rounds per confirmation attempt.
//
// The region must be connected. Its global circuit is then one circuit, so
// a phase's beep reaches every candidate exactly when some candidate tossed
// heads, and Elect evaluates each phase from the number of heads without
// building the circuit. TestElectMatchesGlobalCircuitOracle replays the
// phases on the materialized circuit.
//
// The election is the only randomized component of the reproduction —
// everything in the two shortest-path algorithms themselves is
// deterministic, exactly as the paper states.
package leader

import (
	"math/rand"

	"spforest/amoebot"
	"spforest/internal/sim"
)

// confirmationRounds is the constant-round budget charged per uniqueness
// check (the shape/boundary test of Feldmann et al.).
const confirmationRounds = 4

// Elect elects a single amoebot of the connected region and returns it.
// The rng drives the candidates' coin tosses, drawn in candidate order.
// Every phase is charged the heads' beep round (one beep per heads
// candidate) and the progress round (one beep per remaining candidate);
// the confirmation adds a constant.
func Elect(clock *sim.Clock, region *amoebot.Region, rng *rand.Rand) int32 {
	candidates := append([]int32(nil), region.Nodes()...)
	heads := make([]int32, 0, len(candidates))
	for len(candidates) > 1 {
		heads = heads[:0]
		for _, c := range candidates {
			if rng.Intn(2) == 0 {
				heads = append(heads, c)
			}
		}
		clock.Tick(1)
		clock.AddBeeps(int64(len(heads)))
		// Every candidate heard the beep iff someone tossed heads: then the
		// tails withdraw.
		if len(heads) > 0 {
			candidates, heads = heads, candidates
		}
		// Progress/termination beep by all remaining candidates.
		clock.Tick(1)
		clock.AddBeeps(int64(len(candidates)))
	}
	clock.Tick(confirmationRounds)
	return candidates[0]
}
