package sim

import "math/bits"

// Tally collects, for ChargePASC, the participant values of PASC waves
// stepped jointly on one clock. A participant's value is the number of
// participating non-root slots on its root path, itself included.
type Tally struct {
	max   uint
	zeros int64 // Σ tz(v) over the participants
}

// Add records one participant's value. A value below 1 panics: roots and
// non-participants are not participants.
func (t *Tally) Add(v int) {
	if v < 1 {
		panic("sim: PASC participant value below 1")
	}
	t.max = max(t.max, uint(v))
	t.zeros += int64(bits.TrailingZeros(uint(v)))
}

// ChargePASC charges exactly what stepping the given number of PASC lanes
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
func (c *Clock) ChargePASC(lanes int, t Tally) (iterations int) {
	iterations = max(1, bits.Len(t.max))
	c.Tick(int64(2 * iterations))
	c.AddBeeps(int64(lanes*iterations) + t.zeros)
	return iterations
}

// ChargeETT charges exactly what one Euler tour execution (Corollary 15;
// ett.Run stepped to completion) over any tour with m marked instances
// costs, and returns its iteration count. The marked prefix sums are
// exactly 1..m, so the prefix-sum PASC runs I = max(1, bits.Len(m))
// iterations of 2 rounds (Lemma 4); each iteration costs the track beep
// plus one termination beep per participant still active after it —
// ⌊m/2ⁱ⌋ after iteration i — which sums to I + m − popcount(m) beeps.
func (c *Clock) ChargeETT(m int) (iterations int) {
	iterations = max(1, bits.Len(uint(m)))
	c.Tick(int64(2 * iterations))
	c.AddBeeps(int64(iterations + m - bits.OnesCount(uint(m))))
	return iterations
}

// ChargeBroadcastETT charges the second ETT of the centroid primitives
// (Lemmas 23 and 36) over m marked instances: the ETT itself plus, per
// iteration, one round and one beep in which the root broadcasts the
// current bit of |Q|.
func (c *Clock) ChargeBroadcastETT(m int) {
	iters := c.ChargeETT(m)
	c.Tick(int64(iters))
	c.AddBeeps(int64(iters))
}
