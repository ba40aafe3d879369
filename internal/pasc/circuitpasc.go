package pasc

import (
	"spforest/internal/circuits"
	"spforest/internal/sim"
)

// CircuitChain is the reference implementation of PASC on a chain: instead
// of propagating the track bit directly (the wave.Packed kernel behind
// Run), it materializes the actual pin configuration of Feldmann et al.
// every iteration — two partition sets (primary/secondary) per amoebot, two
// links per edge, crossed inside active amoebots — sends the source beep
// through the resulting circuits, and reads each amoebot's bit off the
// partition set the beep arrives at.
//
// It is the test oracle of the kernel: equivalence with one-lane runs and
// with every lane of a packed execution is property-tested, which
// substantiates the fidelity argument of DESIGN.md §2 ("PASC internals").
// It charges the same 2 rounds per iteration (signal round + termination
// round).
type CircuitChain struct {
	participant []bool
	active      []bool
	bits        []uint8
	iterations  int
	activeCount int
}

// NewCircuitChain creates a circuit-materialized prefix-sum PASC over a
// chain of len(participant) amoebots following a virtual always-toggling
// source (the Corollary 6 configuration; with all participants it computes
// chain distances shifted by the virtual head).
func NewCircuitChain(participant []bool) *CircuitChain {
	c := &CircuitChain{
		participant: append([]bool(nil), participant...),
		active:      make([]bool, len(participant)),
		bits:        make([]uint8, len(participant)),
	}
	for i, p := range c.participant {
		if p {
			c.active[i] = true
			c.activeCount++
		}
	}
	return c
}

// Done mirrors Run.Done.
func (c *CircuitChain) Done() bool { return c.iterations > 0 && c.activeCount == 0 }

// Iterations returns the iterations executed.
func (c *CircuitChain) Iterations() int { return c.iterations }

// Step executes one iteration through real circuits and returns the bit
// each amoebot reads (the slice is reused).
func (c *CircuitChain) Step(clock *sim.Clock) []uint8 {
	c.iterations++
	m := len(c.participant)
	net := circuits.New()
	// Partition sets: primary and secondary per amoebot, plus the virtual
	// source (owner -1).
	pri := make([]circuits.PS, m)
	sec := make([]circuits.PS, m)
	for i := 0; i < m; i++ {
		pri[i] = net.NewPartitionSet(int32(i))
		sec[i] = net.NewPartitionSet(int32(i))
	}
	srcPri := net.NewPartitionSet(-1)
	srcSec := net.NewPartitionSet(-1)
	// Wiring: the primary set always contains the predecessor-side track-0
	// pin; the successor-side track-0 pin sits in the secondary set iff the
	// amoebot toggles (active participant), else in the primary set.
	// Between neighbors, track-0 connects to track-0 and track-1 to
	// track-1 (two links per edge).
	succ0 := func(i int) circuits.PS { // PS holding the succ-side track-0 pin
		if i < 0 { // virtual source: always toggles
			return srcSec
		}
		if c.participant[i] && c.active[i] {
			return sec[i]
		}
		return pri[i]
	}
	succ1 := func(i int) circuits.PS {
		if i < 0 {
			return srcPri
		}
		if c.participant[i] && c.active[i] {
			return pri[i]
		}
		return sec[i]
	}
	for i := 0; i < m; i++ {
		net.Link(succ0(i-1), pri[i]) // pred-side track 0 is in the primary set
		net.Link(succ1(i-1), sec[i])
	}
	// The source sends on its primary partition set (which, because the
	// source toggles, feeds track 1 of the first edge).
	net.Freeze() // one circuit-root resolution serves every read below
	net.Beep(srcPri)
	net.Deliver(clock)
	beeps := int64(0)
	for i := 0; i < m; i++ {
		onPri := net.Received(pri[i])
		onSec := net.Received(sec[i])
		if onPri == onSec {
			panic("pasc: beep on both or neither track")
		}
		var bit uint8
		if c.participant[i] && c.active[i] {
			// Active amoebots read 1 on the secondary set.
			if onSec {
				bit = 1
			}
		} else {
			// Passive amoebots and forwarders read 1 on the primary set.
			if onPri {
				bit = 1
			}
		}
		c.bits[i] = bit
		if c.participant[i] && c.active[i] {
			beeps++
			if bit == 1 {
				c.active[i] = false
				c.activeCount--
			}
		}
	}
	// Termination round: still-active participants beep on a global
	// circuit.
	clock.Tick(1)
	clock.AddBeeps(beeps)
	return c.bits
}
