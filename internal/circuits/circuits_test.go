package circuits

import (
	"testing"

	"spforest/amoebot"
	"spforest/internal/sim"
)

func line(n int) *amoebot.Structure {
	cs := make([]amoebot.Coord, n)
	for i := range cs {
		cs[i] = amoebot.XZ(i, 0)
	}
	return amoebot.MustStructure(cs)
}

func TestLinkMergesCircuits(t *testing.T) {
	n := New()
	a := n.NewPartitionSet(0)
	b := n.NewPartitionSet(1)
	c := n.NewPartitionSet(2)
	if n.SameCircuit(a, b) {
		t.Fatal("unlinked partition sets in same circuit")
	}
	n.Link(a, b)
	if !n.SameCircuit(a, b) || n.SameCircuit(a, c) {
		t.Fatal("link connectivity wrong")
	}
	n.Link(b, c)
	if !n.SameCircuit(a, c) {
		t.Fatal("transitive connectivity missing")
	}
}

func TestLinkSameOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("same-owner link did not panic")
		}
	}()
	n := New()
	a := n.NewPartitionSet(7)
	b := n.NewPartitionSet(7)
	n.Link(a, b)
}

func TestBeepDeliverySemantics(t *testing.T) {
	n := New()
	a := n.NewPartitionSet(0)
	b := n.NewPartitionSet(1)
	c := n.NewPartitionSet(2)
	d := n.NewPartitionSet(3)
	n.Link(a, b)
	n.Link(c, d)
	var clock sim.Clock
	n.Beep(a)
	n.Deliver(&clock)
	if !n.Received(a) || !n.Received(b) {
		t.Error("beep not received on own circuit")
	}
	if n.Received(c) || n.Received(d) {
		t.Error("beep leaked to a disjoint circuit")
	}
	if clock.Rounds() != 1 || clock.Beeps() != 1 {
		t.Errorf("clock: %v", clock.Snapshot())
	}
}

func TestBeepAnonymity(t *testing.T) {
	// Two senders on one circuit are indistinguishable from one.
	n := New()
	a := n.NewPartitionSet(0)
	b := n.NewPartitionSet(1)
	n.Link(a, b)
	var clock sim.Clock
	n.Beep(a)
	n.Beep(b)
	n.Deliver(&clock)
	if !n.Received(a) {
		t.Error("beep missing")
	}
	if clock.Beeps() != 2 {
		t.Errorf("beep work count = %d", clock.Beeps())
	}
}

func TestNextRoundResets(t *testing.T) {
	n := New()
	a := n.NewPartitionSet(0)
	b := n.NewPartitionSet(1)
	n.Link(a, b)
	var clock sim.Clock
	n.Beep(a)
	n.Deliver(&clock)
	n.NextRound()
	n.Deliver(&clock)
	if n.Received(b) {
		t.Error("beep persisted across rounds")
	}
	if clock.Rounds() != 2 {
		t.Errorf("rounds = %d", clock.Rounds())
	}
}

func TestDeliveryGuards(t *testing.T) {
	n := New()
	a := n.NewPartitionSet(0)
	mustPanic(t, "Received before Deliver", func() { n.Received(a) })
	var clock sim.Clock
	n.Deliver(&clock)
	mustPanic(t, "double Deliver", func() { n.Deliver(&clock) })
	mustPanic(t, "Beep after Deliver", func() { n.Beep(a) })
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

func TestEdgeLinkBudget(t *testing.T) {
	n := New()
	a := n.NewPartitionSet(0)
	b := n.NewPartitionSet(1)
	a2 := n.NewPartitionSet(0)
	b2 := n.NewPartitionSet(1)
	n.Link(a, b)
	if n.MaxLinksPerEdge() != 1 {
		t.Errorf("max links = %d", n.MaxLinksPerEdge())
	}
	n.Link(a2, b2)
	n.Link(a, b2) // third pin pair on the same grid edge
	if n.MaxLinksPerEdge() != 3 {
		t.Errorf("max links = %d, want 3", n.MaxLinksPerEdge())
	}
}

func TestRegionCircuitSpans(t *testing.T) {
	s := line(5)
	whole := amoebot.WholeRegion(s)
	n := New()
	ps := RegionCircuit(n, whole)
	if !n.SameCircuit(ps[0], ps[4]) {
		t.Error("region circuit does not span the region")
	}
	if n.MaxLinksPerEdge() != 1 {
		t.Errorf("region circuit uses %d links per edge", n.MaxLinksPerEdge())
	}
	// A sub-region must not leak into excluded nodes.
	n2 := New()
	sub := amoebot.NewRegion(s, []int32{0, 1, 3, 4})
	ps2 := RegionCircuit(n2, sub)
	if n2.SameCircuit(ps2[0], ps2[3]) {
		t.Error("region circuit crossed a gap")
	}
	if !n2.SameCircuit(ps2[0], ps2[1]) || !n2.SameCircuit(ps2[3], ps2[4]) {
		t.Error("region circuit segments broken")
	}
}

func TestNodeSetCircuit(t *testing.T) {
	s := line(4)
	n := New()
	ps := NodeSetCircuit(n, s, []int32{1, 2, 2}) // duplicate tolerated
	if n.Len() != 2 {
		t.Fatalf("partition sets = %d", n.Len())
	}
	if ps[0] != NoPS || ps[3] != NoPS {
		t.Error("nodes outside the set received partition sets")
	}
	if !n.SameCircuit(ps[1], ps[2]) {
		t.Error("node set circuit not connected")
	}
}

func TestVirtualOwnerLinks(t *testing.T) {
	n := New()
	v := n.NewPartitionSet(-1)
	a := n.NewPartitionSet(0)
	n.Link(v, a) // must not count against any grid edge
	if n.MaxLinksPerEdge() != 0 {
		t.Errorf("virtual link counted: %d", n.MaxLinksPerEdge())
	}
}

// TestFreezeMatchesUnfrozen: the frozen circuit table must agree with the
// live union-find on every membership question, survive beep rounds, and
// be invalidated by topology changes.
func TestFreezeMatchesUnfrozen(t *testing.T) {
	s := line(200)
	// Four circuits of 50: link only within blocks.
	n := New()
	ps := make([]PS, s.N())
	for i := range ps {
		ps[i] = n.NewPartitionSet(int32(i))
	}
	for i := 0; i < s.N()-1; i++ {
		if (i+1)%50 != 0 {
			n.Link(ps[i], ps[i+1])
		}
	}
	n.Freeze()
	for i := 0; i < s.N(); i++ {
		for _, j := range []int{0, 49, 50, 149, 199} {
			want := i/50 == j/50
			if got := n.SameCircuit(ps[i], ps[j]); got != want {
				t.Fatalf("frozen SameCircuit(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	// Beep on one circuit; only its members receive.
	var clock sim.Clock
	n.Beep(ps[75])
	n.Deliver(&clock)
	for i := 0; i < s.N(); i++ {
		if got, want := n.Received(ps[i]), i/50 == 1; got != want {
			t.Fatalf("Received(%d) = %v, want %v", i, got, want)
		}
	}
	// A topology change invalidates the frozen table.
	n.NextRound()
	n.Link(ps[49], ps[50])
	if !n.SameCircuit(ps[0], ps[99]) {
		t.Fatal("link after freeze not reflected")
	}
}
