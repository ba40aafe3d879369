package wave

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"spforest/internal/dense"
	"spforest/internal/sim"
)

// randForest builds a random rooted forest over n slots: each slot's parent
// is a random earlier slot (or a root), so the parent array is acyclic by
// construction and index order is a topological order.
func randForest(rng *rand.Rand, n, roots int) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		if i < roots || rng.Intn(8) == 0 {
			parent[i] = -1
		} else {
			parent[i] = int32(rng.Intn(i))
		}
	}
	return parent
}

// laneSpec is one random PASC wave together with its closed-form outcome
// (Lemma 4, Corollaries 5/6).
type laneSpec struct {
	parent []int32
	part   []uint8  // nil: every slot participates
	val    []uint64 // participating non-root slots on each slot's root path
	iters  int      // max(1, bits.Len(max val))
}

// randLane draws a multi-root forest over 1..maxN slots with random
// participants (every slot participates in a third of the lanes) and
// derives its closed form.
func randLane(rng *rand.Rand, maxN int) laneSpec {
	n := 1 + rng.Intn(maxN)
	ls := laneSpec{parent: randForest(rng, n, 1+rng.Intn(3)), val: make([]uint64, n)}
	if rng.Intn(3) != 0 {
		ls.part = make([]uint8, n)
		for i := range ls.part {
			if rng.Intn(4) != 0 {
				ls.part[i] = 1
			}
		}
	}
	maxVal := uint64(0)
	for i, p := range ls.parent {
		if p >= 0 {
			ls.val[i] = ls.val[p]
			if ls.participates(i) {
				ls.val[i]++
			}
		}
		maxVal = max(maxVal, ls.val[i])
	}
	ls.iters = max(1, bits.Len64(maxVal))
	return ls
}

// participates reports whether slot i counts (roots never count themselves).
func (ls laneSpec) participates(i int) bool {
	return ls.parent[i] >= 0 && (ls.part == nil || ls.part[i] != 0)
}

// beeps is the lane's charge in iteration it (1-based): the track beep plus
// the participants still active after it, i.e. those whose value is
// divisible by 2^it.
func (ls laneSpec) beeps(it int) int64 {
	n := int64(1)
	for i, v := range ls.val {
		if ls.participates(i) && v%(1<<uint(it)) == 0 {
			n++
		}
	}
	return n
}

// checkBits asserts that iteration it (1-based) delivered bit it-1 of every
// slot's value.
func (ls laneSpec) checkBits(t *testing.T, label string, it int, got []uint8) {
	t.Helper()
	for i, v := range ls.val {
		if want := uint8(v >> uint(it-1) & 1); got[i] != want {
			t.Fatalf("%s iteration %d slot %d: bit %d, want %d (value %d)", label, it, i, got[i], want, v)
		}
	}
}

// TestWavePackedMatchesPASC pins the kernel against the closed form of
// PASC: on random multi-root forests with random participants, iteration i
// of every lane delivers bit i-1 of each slot's value (the participating
// non-root slots on its root path), a lane terminates after
// max(1, bits.Len(max value)) iterations, and each joint iteration charges
// 2 rounds plus, per lane, 1 + the participants whose value is divisible
// by 2^i.
func TestWavePackedMatchesPASC(t *testing.T) {
	ar := dense.NewArena()
	for _, lanes := range []int{1, 2, 3, 7, 64} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + lanes)))
			p := NewPacked(ar)
			specs := make([]laneSpec, lanes)
			joint := 0
			for l := range specs {
				specs[l] = randLane(rng, 200)
				p.AddLane(specs[l].parent, specs[l].part)
				joint = max(joint, specs[l].iters)
			}
			p.Seal()
			var clock sim.Clock
			var wantBeeps int64
			for it := 1; it <= joint; it++ {
				if p.AllDone() {
					t.Fatalf("all lanes done before joint iteration %d of %d", it, joint)
				}
				p.StepRound(&clock)
				for l, ls := range specs {
					ls.checkBits(t, fmt.Sprintf("lane %d", l), it, p.Bits(l))
					if p.Done(l) != (it >= ls.iters) {
						t.Fatalf("iteration %d lane %d: Done %v, closed form runs %d iterations", it, l, p.Done(l), ls.iters)
					}
					wantBeeps += ls.beeps(it)
				}
				if clock.Rounds() != int64(2*it) || clock.Beeps() != wantBeeps {
					t.Fatalf("iteration %d: clock %d/%d, want %d/%d", it, clock.Rounds(), clock.Beeps(), 2*it, wantBeeps)
				}
			}
			if !p.AllDone() {
				t.Fatalf("not done after %d joint iterations", joint)
			}
			for l, ls := range specs {
				if p.Iterations(l) != ls.iters {
					t.Fatalf("lane %d: %d iterations, want %d", l, p.Iterations(l), ls.iters)
				}
			}
			p.Release()
		})
	}
}

// TestWavePackedDoneLanesKeepZeroBits pins the done-lane skip: once a lane
// terminates, its Bits stay all-zero through later joint rounds (exactly
// what sweeping a terminated wave computes), so downstream comparators keep
// seeing the semantically significant zero feed.
func TestWavePackedDoneLanesKeepZeroBits(t *testing.T) {
	p := NewPacked(nil)
	// Lane 0: tiny chain (terminates fast). Lane 1: long chain.
	p.AddLane([]int32{-1, 0}, nil)
	long := make([]int32, 300)
	for i := range long {
		long[i] = int32(i) - 1
	}
	p.AddLane(long, nil)
	p.Seal()
	var clock sim.Clock
	sawDoneRounds := 0
	for !p.AllDone() {
		// The transition round itself still carries the final nonzero
		// deactivation bits; the all-zero contract starts one joint round
		// later.
		doneBefore := p.Done(0)
		p.StepRound(&clock)
		if doneBefore && p.Done(0) && !p.Done(1) {
			sawDoneRounds++
			for i, b := range p.Bits(0) {
				if b != 0 {
					t.Fatalf("done lane 0 slot %d: bit %d, want 0", i, b)
				}
			}
		}
	}
	if sawDoneRounds == 0 {
		t.Fatal("test never observed lane 0 done while lane 1 live")
	}
}
