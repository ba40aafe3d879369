package pasc

import (
	"math/rand"
	"testing"

	"spforest/internal/sim"
)

// TestCircuitChainMatchesTrackEngine: the circuit-materialized PASC and the
// optimized track-propagation engine must emit identical bit streams, agree
// on iteration counts and charge identical rounds — the fidelity
// cross-check of DESIGN.md §2.
func TestCircuitChainMatchesTrackEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(120)
		participant := make([]bool, m)
		for i := range participant {
			participant[i] = rng.Intn(100) < 60
		}
		fast := NewPrefixSum(participant) // slot i+1 ↔ chain amoebot i
		slow := NewCircuitChain(participant)
		var cFast, cSlow sim.Clock
		for it := 0; ; it++ {
			fd, sd := fast.Done(), slow.Done()
			if fd != sd {
				t.Fatalf("trial %d iter %d: done mismatch (fast=%v slow=%v)", trial, it, fd, sd)
			}
			if fd {
				break
			}
			fastBits := fast.Step(&cFast)
			slowBits := slow.Step(&cSlow)
			for i := 0; i < m; i++ {
				if fastBits[i+1] != slowBits[i] {
					t.Fatalf("trial %d iter %d slot %d: fast bit %d, circuit bit %d",
						trial, it, i, fastBits[i+1], slowBits[i])
				}
			}
		}
		if fast.Iterations() != slow.Iterations() {
			t.Fatalf("trial %d: iterations %d vs %d", trial, fast.Iterations(), slow.Iterations())
		}
		if cFast.Rounds() != cSlow.Rounds() {
			t.Fatalf("trial %d: rounds %d vs %d", trial, cFast.Rounds(), cSlow.Rounds())
		}
	}
}

// TestCircuitChainDistance: with every amoebot participating, amoebot i
// computes i+1 (its weighted distance behind the virtual source).
func TestCircuitChainDistance(t *testing.T) {
	m := 37
	participant := make([]bool, m)
	for i := range participant {
		participant[i] = true
	}
	slow := NewCircuitChain(participant)
	var clock sim.Clock
	vals := make([]uint64, m)
	shift := uint(0)
	for !slow.Done() {
		bitsNow := slow.Step(&clock)
		for i, b := range bitsNow {
			if b != 0 {
				vals[i] |= 1 << shift
			}
		}
		shift++
	}
	for i, v := range vals {
		if v != uint64(i+1) {
			t.Fatalf("amoebot %d computed %d, want %d", i, v, i+1)
		}
	}
}

// TestCircuitChainLinkBudget: the materialized configuration must respect
// the 2-links-per-edge budget the paper's PASC uses.
func TestCircuitChainLinkBudget(t *testing.T) {
	// Inspect one iteration's net indirectly: Step panics internally on
	// inconsistent wiring; the budget is structural (two Link calls per
	// edge), so exercising a step suffices together with the circuits
	// package's own accounting tests.
	slow := NewCircuitChain([]bool{true, true, true, true})
	var clock sim.Clock
	slow.Step(&clock)
	if clock.Rounds() != 2 {
		t.Fatalf("one iteration charged %d rounds", clock.Rounds())
	}
}
