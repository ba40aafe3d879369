package leader

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/circuits"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// circuitElect is the reference execution of Theorem 2's election: it
// builds the region's global circuit once, and in every phase the heads
// candidates beep on their partition sets, the round is delivered, and each
// tails candidate that received the beep withdraws. It fails the test
// unless every candidate receives the beep exactly when some candidate
// tossed heads. Coins are drawn in candidate order, as Elect draws them.
func circuitElect(t *testing.T, clock *sim.Clock, region *amoebot.Region, rng *rand.Rand) int32 {
	t.Helper()
	net := circuits.New()
	ps := circuits.NodeSetCircuit(net, region.Structure(), region.Nodes())
	net.Freeze()
	candidates := append([]int32(nil), region.Nodes()...)
	for phase := 0; len(candidates) > 1; phase++ {
		if phase > 0 {
			net.NextRound()
		}
		heads := make([]bool, len(candidates))
		anyHeads := false
		for i, c := range candidates {
			if rng.Intn(2) == 0 {
				heads[i], anyHeads = true, true
				net.Beep(ps[c])
			}
		}
		net.Deliver(clock)
		next := candidates[:0]
		for i, c := range candidates {
			heard := net.Received(ps[c])
			if heard != anyHeads {
				t.Fatalf("phase %d: candidate %d received %v, some heads %v", phase, c, heard, anyHeads)
			}
			if heads[i] || !heard {
				next = append(next, c)
			}
		}
		candidates = next
		clock.Tick(1)
		clock.AddBeeps(int64(len(candidates)))
	}
	clock.Tick(confirmationRounds)
	return candidates[0]
}

// TestElectMatchesGlobalCircuitOracle replays Elect's coin tosses on the
// materialized global circuit (same seed, phase by phase): the elected
// amoebot, the rounds and the beeps must match on random blobs, hexagons,
// a line, connected holed blobs, and one- and two-amoebot structures.
func TestElectMatchesGlobalCircuitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	type input struct {
		name string
		s    *amoebot.Structure
	}
	inputs := []input{
		{"line-1", shapes.Line(1)},
		{"line-2", shapes.Line(2)},
		{"line-40", shapes.Line(40)},
		{"hex-3", shapes.Hexagon(3)},
		{"hex-9", shapes.Hexagon(9)},
	}
	for i := 0; i < 4; i++ {
		inputs = append(inputs,
			input{fmt.Sprintf("blob-%d", i), shapes.RandomBlob(rng, 20+rng.Intn(300))},
			input{fmt.Sprintf("holed-%d", i), shapes.RandomHoledBlob(rng, 120+rng.Intn(200), 1+i)})
	}
	for _, in := range inputs {
		name, s := in.name, in.s
		if !s.IsConnected() {
			t.Fatalf("%s: structure is not connected", name)
		}
		region := amoebot.WholeRegion(s)
		for seed := int64(0); seed < 8; seed++ {
			var want, got sim.Clock
			w := circuitElect(t, &want, region, rand.New(rand.NewSource(seed)))
			g := Elect(&got, region, rand.New(rand.NewSource(seed)))
			if g != w || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
				t.Fatalf("%s seed %d: Elect %d (%d rounds, %d beeps), circuit %d (%d rounds, %d beeps)",
					name, seed, g, got.Rounds(), got.Beeps(), w, want.Rounds(), want.Beeps())
			}
		}
	}
}
