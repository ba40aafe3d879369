// Package sim provides synchronous-round accounting for simulated
// reconfigurable-circuit executions.
//
// The amoebot model is fully synchronous: time is measured in rounds, and in
// each round every amoebot may reconfigure its pin configuration and beep
// (paper §1.2). The simulator executes the deterministic control flow of the
// algorithms centrally but charges rounds exactly as the paper's accounting
// does: one round per circuit beep phase, two rounds per PASC iteration
// (Lemma 4), one round per interleaved broadcast, one round per
// synchronization beep. Primitives executed on disjoint regions "in
// parallel" cost the maximum of the per-region rounds (plus any explicit
// synchronization), which Clock expresses with Fork/JoinMax.
//
// A primitive whose circuit shape is known is charged in closed form: a
// beep's outcome depends only on which partition sets share a circuit, so
// its rounds and beeps follow from the values it streams (DESIGN.md §2).
// ChargePASC bills jointly stepped PASC waves (Lemma 4) from a Tally of
// their participant values, ChargeETT one Euler tour execution
// (Corollary 15) with m marked instances, and ChargeBroadcastETT the
// centroid primitives' second ETT with its interleaved broadcast
// (Lemmas 23 and 36). The bit-level executions they stand for, pasc.Run
// over wave.Packed and ett.Run, are the references of the Oracle tests in
// internal/pasc, internal/ett and internal/treeprim; no query runs them.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Clock accumulates synchronous rounds and beep counts of a simulated
// execution. The zero value is ready to use.
type Clock struct {
	rounds int64
	beeps  int64
	phases map[string]int64
}

// Rounds returns the number of synchronous rounds elapsed.
func (c *Clock) Rounds() int64 { return c.rounds }

// Beeps returns the total number of beep signals sent (a work measure; the
// paper bounds rounds, beeps are reported as a secondary metric).
func (c *Clock) Beeps() int64 { return c.beeps }

// Tick advances the clock by n rounds.
func (c *Clock) Tick(n int64) {
	if n < 0 {
		panic("sim: negative tick")
	}
	c.rounds += n
}

// AddBeeps records n beep signals sent during the current rounds.
func (c *Clock) AddBeeps(n int64) {
	if n < 0 {
		panic("sim: negative beeps")
	}
	c.beeps += n
}

// Fork returns a fresh child clock for one branch of a parallel composition.
func (c *Clock) Fork() *Clock { return &Clock{} }

// JoinMax merges parallel branches: the slowest branch determines the round
// cost, while beeps and phase attributions accumulate across all branches.
func (c *Clock) JoinMax(children ...*Clock) {
	var max int64
	for _, ch := range children {
		if ch.rounds > max {
			max = ch.rounds
		}
		c.beeps += ch.beeps
		for name, r := range ch.phases {
			c.addPhase(name, r)
		}
	}
	c.rounds += max
}

func (c *Clock) addPhase(name string, rounds int64) {
	if c.phases == nil {
		c.phases = make(map[string]int64)
	}
	c.phases[name] += rounds
}

// Phase attributes all rounds elapsed during fn to the named phase
// (in addition to the total).
func (c *Clock) Phase(name string, fn func()) {
	start := c.rounds
	fn()
	c.addPhase(name, c.rounds-start)
}

// AttributePhase adds rounds to the named phase without advancing the
// clock: the replay side of record/replay accounting. A shared batch solve
// charges each member clock its deterministic round deltas directly (the
// Phase callback bracket is not available per member there) and then
// attributes the phase by name; the resulting snapshot is identical to the
// one a Phase-wrapped solo run produces.
func (c *Clock) AttributePhase(name string, rounds int64) {
	if rounds < 0 {
		panic("sim: negative phase rounds")
	}
	c.addPhase(name, rounds)
}

// PhaseRounds returns the rounds attributed to the named phase.
func (c *Clock) PhaseRounds(name string) int64 { return c.phases[name] }

// Stats is an immutable snapshot of a clock.
type Stats struct {
	Rounds int64
	Beeps  int64
	Phases map[string]int64
}

// Snapshot returns the current totals.
func (c *Clock) Snapshot() Stats {
	ph := make(map[string]int64, len(c.phases))
	for k, v := range c.phases {
		ph[k] = v
	}
	return Stats{Rounds: c.rounds, Beeps: c.beeps, Phases: ph}
}

func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d beeps=%d", s.Rounds, s.Beeps)
	if len(s.Phases) > 0 {
		names := make([]string, 0, len(s.Phases))
		for k := range s.Phases {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%d", k, s.Phases[k])
		}
	}
	return b.String()
}
