package pasc

import (
	"math/bits"
	"math/rand"
	"testing"

	"spforest/internal/sim"
	"spforest/internal/wave"
)

func TestChainDistance(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 17, 100, 1000} {
		var clock sim.Clock
		r := NewChainDistance(n)
		vals := Collect(&clock, r)
		for i, v := range vals {
			if v != uint64(i) {
				t.Fatalf("n=%d: slot %d computed %d", n, i, v)
			}
		}
		wantIters := 1
		if n >= 2 {
			wantIters = bits.Len(uint(n - 1)) // ⌊log₂(n-1)⌋+1
		}
		if r.Iterations() != wantIters {
			t.Errorf("n=%d: %d iterations, want %d", n, r.Iterations(), wantIters)
		}
		if clock.Rounds() != int64(2*r.Iterations()) {
			t.Errorf("n=%d: %d rounds for %d iterations", n, clock.Rounds(), r.Iterations())
		}
	}
}

func TestTreeDistanceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		parent := make([]int32, n)
		depth := make([]uint64, n)
		parent[0] = -1
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			parent[i] = int32(p)
			depth[i] = depth[p] + 1
		}
		var clock sim.Clock
		r := NewTreeDistance(parent)
		vals := Collect(&clock, r)
		for i, v := range vals {
			if v != depth[i] {
				t.Fatalf("trial %d: node %d depth %d, PASC says %d", trial, i, depth[i], v)
			}
		}
	}
}

func TestTreeDistanceMultiRoot(t *testing.T) {
	// Forest with two roots: distances to the nearest root along parents.
	parent := []int32{-1, 0, 1, -1, 3}
	var clock sim.Clock
	vals := Collect(&clock, NewTreeDistance(parent))
	want := []uint64{0, 1, 2, 0, 1}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, vals[i], want[i])
		}
	}
}

func TestPrefixSumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(150)
		weights := make([]bool, m)
		for i := range weights {
			weights[i] = rng.Intn(2) == 0
		}
		var clock sim.Clock
		r := NewPrefixSum(weights)
		vals := Collect(&clock, r)
		sum := uint64(0)
		for i, w := range weights {
			if w {
				sum++
			}
			if vals[i+1] != sum {
				t.Fatalf("trial %d: prefix[%d] = %d, want %d (weights %v)",
					trial, i, vals[i+1], sum, weights)
			}
		}
		// Iteration bound: ⌊log₂ W⌋+1 (1 when W == 0).
		wantIters := 1
		if sum >= 1 {
			wantIters = bits.Len64(sum)
		}
		if r.Iterations() != wantIters {
			t.Errorf("trial %d: W=%d took %d iterations, want %d", trial, sum, r.Iterations(), wantIters)
		}
	}
}

func TestPrefixSumAllZeroWeights(t *testing.T) {
	var clock sim.Clock
	r := NewPrefixSum(make([]bool, 10))
	vals := Collect(&clock, r)
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	if r.Iterations() != 1 {
		t.Errorf("iterations = %d, want 1 (single silent check)", r.Iterations())
	}
	if clock.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", clock.Rounds())
	}
}

func TestDoneRunsEmitZeros(t *testing.T) {
	r := NewChainDistance(4)
	var clock sim.Clock
	for !r.Done() {
		r.Step(&clock)
	}
	iters := r.Iterations()
	bitsAfter := r.Step(&clock)
	for i, b := range bitsAfter {
		if b != 0 {
			t.Fatalf("slot %d emitted %d after completion", i, b)
		}
	}
	if r.Iterations() != iters {
		t.Fatalf("stepping a terminated run counted an iteration (%d → %d)", iters, r.Iterations())
	}
}

func TestJointStepping(t *testing.T) {
	// Two waves of different lengths stepped as lanes of one execution share
	// the termination round: rounds = 2·max iters, while each lane counts
	// only its own iterations.
	var clock sim.Clock
	p := wave.NewPacked(nil)
	p.AddLane(chainParent(3), nil)    // values ≤ 2 → 2 iterations
	p.AddLane(chainParent(1000), nil) // values ≤ 999 → 10 iterations
	p.Seal()
	for !p.AllDone() {
		p.StepRound(&clock)
	}
	if p.Iterations(0) != 2 || p.Iterations(1) != 10 {
		t.Fatalf("lane iterations %d/%d, want 2/10", p.Iterations(0), p.Iterations(1))
	}
	if clock.Rounds() != int64(2*p.Iterations(1)) {
		t.Fatalf("rounds = %d", clock.Rounds())
	}
}

func TestBitsStreamLSBFirst(t *testing.T) {
	// Manually step and verify iteration i delivers bit i-1 of the distance.
	r := NewChainDistance(13)
	var clock sim.Clock
	for it := 0; !r.Done(); it++ {
		bitsNow := r.Step(&clock)
		for slot, b := range bitsNow {
			want := uint8(slot >> uint(it) & 1)
			if b != want {
				t.Fatalf("iteration %d slot %d: bit %d, want %d", it+1, slot, b, want)
			}
		}
	}
}

func TestNonParticipantsInheritPrefix(t *testing.T) {
	// weights 0,1,0,0,1,0 → prefixes 0,1,1,1,2,2
	weights := []bool{false, true, false, false, true, false}
	var clock sim.Clock
	vals := Collect(&clock, NewPrefixSum(weights))
	want := []uint64{0, 0, 1, 1, 1, 2, 2} // slot 0 is the virtual source
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, vals[i], want[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic(t, "no root", func() { New([]int32{1, 0}, []bool{true, true}) })
	mustPanic(t, "length mismatch", func() { New([]int32{-1}, nil) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}
