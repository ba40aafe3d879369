package pasc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/internal/pasc"
	"spforest/internal/sim"
	"spforest/internal/wave"
)

// TestLanePackedPASCMatchesCircuitChain pins the lane-packed PASC engine
// against the circuit-materialized reference (the slowest, most literal
// implementation of the paper's §2.2 construction): every lane of a packed
// run must emit the exact bit stream and iteration count the per-wave
// CircuitChain produces, for lane counts 1 and 64. Together with
// TestCircuitChainMatchesTrackEngine (the one-lane Run view) this pins the
// one PASC kernel to the materialized circuits.
func TestLanePackedPASCMatchesCircuitChain(t *testing.T) {
	for _, lanes := range []int{1, 64} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(lanes)))
			p := wave.NewPacked(nil)
			chains := make([]*pasc.CircuitChain, lanes)
			sizes := make([]int, lanes)
			for l := 0; l < lanes; l++ {
				m := 1 + rng.Intn(90)
				sizes[l] = m
				participant := make([]bool, m)
				// The packed lane mirrors NewPrefixSum: slot 0 is the virtual
				// source, chain amoebot i is slot i+1.
				parent := make([]int32, m+1)
				part := make([]uint8, m+1)
				parent[0] = -1
				for i := range participant {
					participant[i] = rng.Intn(100) < 60
					parent[i+1] = int32(i)
					if participant[i] {
						part[i+1] = 1
					}
				}
				p.AddLane(parent, part)
				chains[l] = pasc.NewCircuitChain(participant)
			}
			p.Seal()
			var packedClock sim.Clock
			soloClocks := make([]sim.Clock, lanes)
			for it := 0; !p.AllDone(); it++ {
				if it > 64 {
					t.Fatal("no convergence")
				}
				p.StepRound(&packedClock)
				for l := 0; l < lanes; l++ {
					if chains[l].Done() {
						continue // the solo wave has terminated; its lane emits zeros
					}
					circuitBits := chains[l].Step(&soloClocks[l])
					laneBits := p.Bits(l)
					for i := 0; i < sizes[l]; i++ {
						if laneBits[i+1] != circuitBits[i] {
							t.Fatalf("iter %d lane %d amoebot %d: lane bit %d, circuit bit %d",
								it, l, i, laneBits[i+1], circuitBits[i])
						}
					}
					if p.Done(l) != chains[l].Done() {
						t.Fatalf("iter %d lane %d: done %v, circuit done %v", it, l, p.Done(l), chains[l].Done())
					}
				}
			}
			for l := 0; l < lanes; l++ {
				if p.Iterations(l) != chains[l].Iterations() {
					t.Fatalf("lane %d: %d iterations, circuit ran %d", l, p.Iterations(l), chains[l].Iterations())
				}
			}
		})
	}
}
