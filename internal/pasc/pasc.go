// Package pasc implements the PASC (primary and secondary circuits)
// algorithm of Feldmann et al., the distance/prefix-sum workhorse of the
// paper (§2.2, Lemmas 3–4, Corollaries 5–6).
//
// PASC runs on a chain or rooted tree of slots. Every slot holds two
// partition sets — primary and secondary — forming two parallel "tracks"
// along the chain (2 links per edge). Active slots cross the tracks,
// passive slots pass them straight through. Each iteration the source beeps
// on its primary set; a slot reads one bit from the track the beep arrives
// on (inverted if the slot is passive or a non-participating forwarder),
// learning the i-th bit (LSB first) of its distance to the source
// (respectively of its weighted prefix sum). An active participant that
// reads 1 becomes passive. A second beep round per iteration — all still
// active participants beep on a global circuit — detects termination, so
// each iteration costs exactly 2 rounds (Lemma 4).
//
// Invariant: at the start of iteration i (1-based), the active participants
// are exactly those whose value is divisible by 2^(i-1); the PASC therefore
// terminates after ⌊log₂ max⌋ + 1 iterations.
//
// This package holds the paper-level configurations (chain distance, tree
// distance, prefix sums), the closed form Charge and the
// circuit-materialized reference CircuitChain. The algorithms of
// internal/core evaluate their PASC executions in closed form: one
// traversal yields the streamed values, the values are compared as
// integers, and Charge bills the clock what the bit-level execution costs
// (DESIGN.md §2). Bit-level execution belongs to wave.Packed: a Run is a
// one-lane view over it, which propagates the arriving track directly (an
// XOR along the tree) instead of materializing the two circuits —
// observationally identical and linear per iteration.
package pasc

import (
	"math/bits"

	"spforest/internal/sim"
	"spforest/internal/wave"
)

// Tally collects, for Charge, the participant values of PASC waves stepped
// jointly on one clock. A participant's value is the number of
// participating non-root slots on its root path, itself included.
type Tally struct {
	max   uint
	zeros int64 // Σ tz(v) over the participants
}

// Add records one participant's value. A value below 1 panics: roots and
// non-participants are not participants.
func (t *Tally) Add(v int) {
	if v < 1 {
		panic("pasc: participant value below 1")
	}
	t.max = max(t.max, uint(v))
	t.zeros += int64(bits.TrailingZeros(uint(v)))
}

// Charge charges the clock exactly what stepping the given number of lanes
// jointly to completion (wave.Packed.StepRound until every lane is done)
// costs when t holds all their participants, and returns the iteration
// count. A participant with value v turns passive in iteration tz(v)+1,
// and the values on a root path are 1..v, so the run lasts
// I = max(1, bits.Len(max v)) iterations of 2 rounds (Lemma 4). Every lane
// beeps its track once per iteration, finished lanes included, and a
// participant beeps on the termination circuit in the tz(v) iterations
// that end with it still active: lanes·I + Σ tz(v) beeps. All bits of
// every value arrive within the I iterations, so an LSB-first comparator
// fed by the run ends on the integer comparison of its two values.
func Charge(clock *sim.Clock, lanes int, t Tally) (iterations int) {
	iterations = max(1, bits.Len(t.max))
	clock.Tick(int64(2 * iterations))
	clock.AddBeeps(int64(lanes*iterations) + t.zeros)
	return iterations
}

// Run is one PASC execution over a forest of slots: a one-lane wave.Packed.
// Roots act as sources: they always toggle the track and always read bit 0.
type Run struct {
	p *wave.Packed
}

// New creates a PASC run over slots 0..len(parent)-1 with the given forest
// structure (parent[i] == -1 marks a root/source). participant[i] selects
// the slots that take part in the counting; non-participants forward the
// tracks unchanged and read the prefix value of their nearest participating
// ancestor. Roots' participant flags are ignored (sources always toggle).
func New(parent []int32, participant []bool) *Run {
	if len(participant) != len(parent) {
		panic("pasc: length mismatch")
	}
	part := make([]uint8, len(parent))
	for i, ok := range participant {
		if ok {
			part[i] = 1
		}
	}
	return newRun(parent, part)
}

// newRun seals a one-lane execution; a nil participant column means every
// slot participates.
func newRun(parent []int32, part []uint8) *Run {
	p := wave.NewPacked(nil)
	p.AddLane(parent, part)
	p.Seal()
	return &Run{p: p}
}

// NewChain creates a run over a chain of n slots (slot 0 the source).
// With all participants it computes each slot's distance to slot 0
// (Lemma 3).
func NewChain(n int, participant []bool) *Run {
	return New(chainParent(n), participant)
}

// NewChainDistance creates the Lemma 3 configuration: a chain of n slots,
// everybody participates.
func NewChainDistance(n int) *Run {
	return newRun(chainParent(n), nil)
}

func chainParent(n int) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i) - 1
	}
	return parent
}

// NewTreeDistance creates the Corollary 5 configuration: distances to the
// root(s) in a rooted forest.
func NewTreeDistance(parent []int32) *Run {
	return newRun(parent, nil)
}

// NewPrefixSum creates the Corollary 6 configuration for a chain of m
// elements with 0/1 weights: slot i+1 computes prefixsum(i) = w(0)+…+w(i).
// Slot 0 is the virtual source (simulated by the first chain amoebot).
func NewPrefixSum(weights []bool) *Run {
	parent := chainParent(len(weights) + 1)
	part := make([]uint8, len(weights)+1)
	for i, w := range weights {
		if w {
			part[i+1] = 1
		}
	}
	return newRun(parent, part)
}

// Len returns the number of slots.
func (r *Run) Len() int { return len(r.p.Bits(0)) }

// Done reports whether the run has terminated: every participant has turned
// passive and at least one iteration has run.
func (r *Run) Done() bool { return r.p.Done(0) }

// Iterations returns the number of iterations stepped before termination.
func (r *Run) Iterations() int { return r.p.Iterations(0) }

// Step executes one PASC iteration on the clock — 2 rounds (Lemma 4), plus
// the track beep and every still-active participant's termination beep —
// and returns the bit each slot reads. The returned slice is reused by the
// next call; a terminated run keeps emitting zero bits.
func (r *Run) Step(clock *sim.Clock) []uint8 {
	r.p.StepRound(clock)
	return r.p.Bits(0)
}

// Collect runs r to completion, returning each slot's full value
// (simulator convenience: real amoebots consume the bits with O(1)-state
// machines instead; see bitstream).
func Collect(clock *sim.Clock, r *Run) []uint64 {
	vals := make([]uint64, r.Len())
	for shift := uint(0); !r.Done(); shift++ {
		for j, b := range r.Step(clock) {
			if b != 0 {
				vals[j] |= 1 << shift
			}
		}
	}
	return vals
}
