package core

import (
	"math"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// These regression tests pin the measured round counts inside explicit
// envelopes derived from the paper's bounds, so that accidental
// inefficiencies (extra rounds per phase, broken parallel composition)
// fail loudly rather than silently degrading the reproduction.

// sptRounds runs SPT and returns the rounds.
func sptRounds(t *testing.T, s *amoebot.Structure, src int32, dests []int32) int64 {
	t.Helper()
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, amoebot.WholeRegion(s), src, dests)
	if err := verify.Forest(s, []int32{src}, dests, f); err != nil {
		t.Fatal(err)
	}
	return clock.Rounds()
}

func TestEnvelopeSPSPExactly19(t *testing.T) {
	// The SPSP round count is a closed-form constant of the construction:
	// 3×(dest beep 1 + ETT 2·1 + portal beeps 2) + child discovery 1 +
	// final root&prune 2 + sync 1 = 19. Pin it.
	for _, r := range []int{4, 16, 64} {
		s := shapes.Hexagon(r)
		a, _ := s.Index(amoebot.XZ(-r, 0))
		b, _ := s.Index(amoebot.XZ(r, 0))
		if got := sptRounds(t, s, a, []int32{b}); got != 19 {
			t.Fatalf("hexagon(%d): SPSP rounds = %d, want exactly 19", r, got)
		}
	}
}

func TestEnvelopeSPTLogL(t *testing.T) {
	s := shapes.Hexagon(32)
	rng := rand.New(rand.NewSource(9))
	for _, l := range []int{1, 8, 64, 512} {
		dests := shapes.RandomSubset(rng, s, l)
		got := sptRounds(t, s, 0, dests)
		// Envelope: 4 root&prune executions at ≤ 2(log₂ℓ+1)+2 rounds each,
		// plus ≤ 8 fixed rounds.
		bound := int64(4*(2*(math.Log2(float64(l))+1)+2) + 8)
		if got > bound {
			t.Fatalf("ℓ=%d: rounds %d exceed envelope %d", l, got, bound)
		}
	}
}

func TestEnvelopeSSSPLogN(t *testing.T) {
	for _, r := range []int{8, 32, 64} {
		s := shapes.Hexagon(r)
		dests := make([]int32, s.N())
		for i := range dests {
			dests[i] = int32(i)
		}
		got := sptRounds(t, s, 0, dests)
		bound := int64(8*math.Log2(float64(s.N())) + 30)
		if got > bound {
			t.Fatalf("n=%d: SSSP rounds %d exceed envelope %d", s.N(), got, bound)
		}
	}
}

func TestEnvelopeForestPolylog(t *testing.T) {
	// log n log² k envelope with an explicit constant; catches any
	// accidental linear factor.
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{4, 16, 64} {
		s := shapes.RandomBlob(rng, 3000)
		r := amoebot.WholeRegion(s)
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, r.Nodes(), sources[0], ScheduleCentroid)
		if err := verify.Forest(s, sources, r.Nodes(), f); err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(s.N()))
		logk := math.Log2(float64(k)) + 1
		bound := int64(14*logn*logk*logk + 200)
		if clock.Rounds() > bound {
			t.Fatalf("k=%d n=%d: rounds %d exceed polylog envelope %d",
				k, s.N(), clock.Rounds(), bound)
		}
	}
}

func TestEnvelopeForestIndependentOfDiameter(t *testing.T) {
	// Same n and k, wildly different diameters: round counts must stay in
	// the same ballpark (no hidden Ω(diam) component).
	k := 4
	compact := shapes.Parallelogram(45, 45) // n=2025, diam ≈ 89
	long := shapes.Comb(8, 250)             // n=2015, diam ≈ 530
	get := func(s *amoebot.Structure) int64 {
		rng := rand.New(rand.NewSource(13))
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, amoebot.WholeRegion(s), sources, amoebot.WholeRegion(s).Nodes(), sources[0], ScheduleCentroid)
		if err := verify.Forest(s, sources, amoebot.WholeRegion(s).Nodes(), f); err != nil {
			t.Fatal(err)
		}
		return clock.Rounds()
	}
	rc, rl := get(compact), get(long)
	if rl > 3*rc {
		t.Fatalf("long-diameter structure cost %d rounds vs %d compact: hidden diameter dependence?", rl, rc)
	}
}

func TestAblationScheduleCorrect(t *testing.T) {
	// The tree-depth schedule must still produce correct forests.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		s := shapes.RandomBlob(rng, 40+rng.Intn(200))
		r := amoebot.WholeRegion(s)
		k := 2 + rng.Intn(8)
		if k > s.N() {
			k = s.N()
		}
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, r.Nodes(), sources[0], ScheduleTreeDepth)
		if err := verify.Forest(s, sources, r.Nodes(), f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAblationCentroidScheduleWins(t *testing.T) {
	// On a staircase (path-like portal tree) with many source rows the
	// centroid schedule needs O(log k) levels, the plain bottom-up walk
	// Θ(k): the ablation must be measurably slower for large k.
	s := shapes.Staircase(16, 6, 3)
	r := amoebot.WholeRegion(s)
	rng := rand.New(rand.NewSource(17))
	sources := shapes.RandomSubset(rng, s, 24)
	var c1, c2 sim.Clock
	f1 := ForestEnv(testEnv(), &c1, r, sources, r.Nodes(), sources[0], ScheduleCentroid)
	f2 := ForestEnv(testEnv(), &c2, r, sources, r.Nodes(), sources[0], ScheduleTreeDepth)
	if err := verify.Forest(s, sources, r.Nodes(), f1); err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(s, sources, r.Nodes(), f2); err != nil {
		t.Fatal(err)
	}
	if c1.Rounds() >= c2.Rounds() {
		t.Fatalf("centroid schedule (%d rounds) not faster than ablation (%d rounds)",
			c1.Rounds(), c2.Rounds())
	}
}
