package pasc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/internal/sim"
	"spforest/internal/wave"
)

// chargeLane is one random PASC wave over a forest of slots: its parent
// column, its participant flags, and the values of its participants.
type chargeLane struct {
	parent []int32
	part   []uint8
	values []int
}

// randChargeLane draws a forest over n slots whose parents precede their
// children, with the given root count (at least one), a participant
// probability in percent and a chain bias: with chain set, every non-root
// slot hangs off its predecessor, which makes the lane deep.
func randChargeLane(rng *rand.Rand, n, roots, partPct int, chain bool) chargeLane {
	cl := chargeLane{parent: make([]int32, n), part: make([]uint8, n)}
	val := make([]int, n)
	for i := range cl.parent {
		switch {
		case i < roots:
			cl.parent[i] = -1
			continue
		case chain:
			cl.parent[i] = int32(i - 1)
		default:
			cl.parent[i] = int32(rng.Intn(i))
		}
		val[i] = val[cl.parent[i]]
		if rng.Intn(100) < partPct {
			cl.part[i] = 1
			val[i]++
			cl.values = append(cl.values, val[i])
		}
	}
	return cl
}

// TestChargeMatchesPackedOracle pins sim.Clock.ChargePASC against the
// bit-level execution it stands for: random multi-lane forests with random
// participants — among them a lane without participants, a one-slot lane
// and lanes of very different depths — stepped jointly to completion with
// wave.Packed.StepRound must take the charge's iterations, rounds and
// beeps. A participant value of 0 (a root's) is rejected by sim.Tally.
func TestChargeMatchesPackedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		var lanes []chargeLane
		switch trial {
		case 0:
			lanes = []chargeLane{randChargeLane(rng, 1, 1, 100, false)} // one slot, no participant
		case 1:
			lanes = []chargeLane{
				randChargeLane(rng, 40, 3, 0, false),   // no participants
				randChargeLane(rng, 1, 1, 100, false),  // one slot
				randChargeLane(rng, 900, 1, 100, true), // deep chain
				randChargeLane(rng, 3, 1, 100, false),  // shallow
			}
		default:
			for l := 1 + rng.Intn(wave.MaxLanes); l > 0; l-- {
				n := 1 + rng.Intn(150)
				lanes = append(lanes, randChargeLane(rng, n, 1+rng.Intn(min(n, 4)), rng.Intn(101), rng.Intn(4) == 0))
			}
		}
		t.Run(fmt.Sprintf("trial=%d/lanes=%d", trial, len(lanes)), func(t *testing.T) {
			p := wave.NewPacked(nil)
			var tally sim.Tally
			for _, cl := range lanes {
				p.AddLane(cl.parent, cl.part)
				for _, v := range cl.values {
					tally.Add(v)
				}
			}
			p.Seal()
			var want sim.Clock
			iters := 0
			for ; !p.AllDone(); iters++ {
				p.StepRound(&want)
			}
			var got sim.Clock
			if gi := got.ChargePASC(len(lanes), tally); gi != iters {
				t.Fatalf("ChargePASC: %d iterations, the packed run took %d", gi, iters)
			}
			if got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
				t.Fatalf("ChargePASC: %d rounds / %d beeps, the packed run charged %d / %d",
					got.Rounds(), got.Beeps(), want.Rounds(), want.Beeps())
			}
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Tally.Add(0) did not panic")
			}
		}()
		var tally sim.Tally
		tally.Add(0)
	}()
}
