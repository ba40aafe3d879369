// Package wave is the bit-level PASC executor: it runs up to 64 PASC waves
// as lanes of a single execution, stepping every slot's track bit
// iteration by iteration. A single wave is simply a one-lane execution.
//
// The algorithms of internal/core evaluate PASC in closed form (pasc.Charge,
// DESIGN.md §2): a wave's rounds and beeps depend only on the values it
// streams, and an LSB-first comparator fed by it ends on the integer
// comparison. This package remains the execution those closed forms are
// checked against, and it is what pasc.Run steps for the paper-level
// configurations (E12, ett.Run, the benchmark's PASC probe).
//
// Feldmann et al. (arXiv:2105.05071) observe that reconfigurable circuits
// are reusable across waves — one circuit, many signals. All waves of one
// Packed run live in one set of flat columns, advance in one fused
// branch-free pass per iteration, and carry their termination state as
// single bits of a uint64 mask. Every lane's bits, its iteration count and
// the rounds/beeps charged to its clock are exactly those of the same wave
// run alone (property-pinned against the closed form of Lemma 4 and the
// circuit-materialized pasc.CircuitChain reference).
package wave

import (
	"spforest/internal/dense"
	"spforest/internal/sim"
)

// MaxLanes is the number of waves one Packed execution can carry: one per
// bit of the done/zeroed masks.
const MaxLanes = 64

// Packed is one lane-multiplexed tree-PASC execution: up to MaxLanes
// independent PASC waves (lanes) over one shared slot arena. Each lane is a
// rooted forest of slots whose roots act as sources: they always toggle the
// track and always read bit 0. The lanes' slots are concatenated into
// shared SoA columns — one parent column, one topological order, one set of
// byte flag columns — so that every joint iteration is one pass over
// contiguous memory, and the per-lane build reuses one set of CSR scratch
// arrays.
//
// Per-lane termination lives in a uint64 done mask; lanes that finish
// early are skipped by later sweeps (their bits are re-zeroed once, which
// is exactly what sweeping a terminated lane would compute).
//
// Build with NewPacked + AddLane + Seal; advance with StepRound (all lanes
// on one clock, sharing the termination round).
type Packed struct {
	ar *dense.Arena

	// Shared SoA columns over the concatenated slot space. The parent
	// column uses one shared sentinel: roots of every lane point at virtual
	// slot nslots, whose arrival entry is pinned to track 0.
	pidx    []int32
	order   []int32
	part    []uint8
	act     []uint8
	root    []uint8
	bits    []uint8
	arrival []uint8 // length nslots+1

	laneLo   []int32 // lane -> first slot; laneLo[lanes] = nslots
	active   []int   // per-lane count of still-active participants
	iters    []int   // per-lane iterations stepped
	doneMask uint64  // bit L: lane L terminated (iters > 0, no actives)
	zeroMask uint64  // bit L: lane L's bits were re-zeroed after it finished

	// Lane specs staged by AddLane until Seal (caller-owned slices; Seal
	// copies what it needs and drops the references).
	specParent [][]int32
	specPart   [][]uint8
	sealed     bool
}

// NewPacked starts an empty packed execution drawing its columns from the
// arena (nil degrades to plain allocation).
func NewPacked(ar *dense.Arena) *Packed {
	return &Packed{ar: ar}
}

// AddLane stages one PASC wave: a rooted forest over local slots
// 0..len(parent)-1 (parent[i] == -1 marks a root/source) with the given
// participant flags (nil means every slot participates; roots never count
// themselves). Non-participants forward the tracks unchanged and read the
// value of their nearest participating ancestor. The caller keeps
// ownership of the slices but must not mutate them before Seal. Returns the
// lane index.
func (p *Packed) AddLane(parent []int32, participant []uint8) int {
	if p.sealed {
		panic("wave: AddLane after Seal")
	}
	if len(p.specParent) == MaxLanes {
		panic("wave: too many lanes")
	}
	if participant != nil && len(participant) != len(parent) {
		panic("wave: participant length mismatch")
	}
	p.specParent = append(p.specParent, parent)
	p.specPart = append(p.specPart, participant)
	return len(p.specParent) - 1
}

// Seal builds the shared columns from the staged lanes: one allocation per
// column for all lanes together, one CSR/topo construction per lane over
// shared scratch. After Seal the lane specs are released and stepping may
// begin.
func (p *Packed) Seal() {
	if p.sealed {
		panic("wave: double Seal")
	}
	p.sealed = true
	lanes := len(p.specParent)
	if lanes == 0 {
		panic("wave: Seal with no lanes")
	}
	n := 0
	p.laneLo = make([]int32, lanes+1)
	maxLane := 0
	for l, parent := range p.specParent {
		p.laneLo[l] = int32(n)
		n += len(parent)
		if len(parent) > maxLane {
			maxLane = len(parent)
		}
	}
	p.laneLo[lanes] = int32(n)
	p.pidx = p.ar.Int32s(n)
	p.order = p.ar.Int32s(n)[:0]
	p.part = p.ar.Bytes(n)
	p.act = p.ar.Bytes(n)
	p.root = p.ar.Bytes(n)
	p.bits = p.ar.Bytes(n)
	p.arrival = p.ar.Bytes(n + 1)
	p.active = make([]int, lanes)
	p.iters = make([]int, lanes)

	// One set of CSR scratch serves every lane's topo construction.
	kidOff := p.ar.Int32s(maxLane + 1)
	kids := p.ar.Int32s(maxLane)
	pos := p.ar.Int32s(maxLane)
	defer p.ar.PutInt32s(kidOff)
	defer p.ar.PutInt32s(kids)
	defer p.ar.PutInt32s(pos)
	var roots []int32
	for l, parent := range p.specParent {
		off := int(p.laneLo[l])
		m := len(parent)
		partSpec := p.specPart[l]
		clear(kidOff[:m+1])
		roots = roots[:0]
		for i, pp := range parent {
			g := off + i
			if pp == -1 {
				roots = append(roots, int32(i))
				p.root[g] = 1
				p.pidx[g] = int32(n) // shared sentinel: arrival[n] ≡ track 0
			} else {
				p.pidx[g] = int32(off) + pp
				kidOff[pp+1]++
			}
			if pp != -1 && (partSpec == nil || partSpec[i] != 0) {
				p.part[g] = 1
				p.act[g] = 1
				p.active[l]++
			}
		}
		if len(roots) == 0 {
			panic("wave: lane has no root slot")
		}
		for i := 0; i < m; i++ {
			kidOff[i+1] += kidOff[i]
		}
		copy(pos[:m], kidOff[:m])
		for i, pp := range parent {
			if pp != -1 {
				kids[pos[pp]] = int32(i)
				pos[pp]++
			}
		}
		// Root-to-leaf DFS in local slots, emitted as global slot ids.
		stack := append(pos[:0], roots...)
		emitted := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.order = append(p.order, int32(off)+u)
			emitted++
			stack = append(stack, kids[kidOff[u]:kidOff[u+1]]...)
		}
		if emitted != m {
			panic("wave: lane slot graph is not a forest")
		}
	}
	p.specParent, p.specPart = nil, nil
}

// Release returns the shared columns to the arena. The run must not be
// used afterwards.
func (p *Packed) Release() {
	if !p.sealed {
		return
	}
	p.ar.PutInt32s(p.pidx)
	p.ar.PutInt32s(p.order)
	p.ar.PutBytes(p.part)
	p.ar.PutBytes(p.act)
	p.ar.PutBytes(p.root)
	p.ar.PutBytes(p.bits)
	p.ar.PutBytes(p.arrival)
	p.pidx, p.order, p.part, p.act, p.root, p.bits, p.arrival = nil, nil, nil, nil, nil, nil, nil
}

// Done reports whether lane l has terminated: every participant has turned
// passive and at least one iteration has run (the amoebots need one silent
// termination beep to learn that the run is over, even when nothing was
// marked).
func (p *Packed) Done(l int) bool { return p.doneMask>>uint(l)&1 == 1 }

// AllDone reports whether every lane has terminated.
func (p *Packed) AllDone() bool {
	return p.doneMask == uint64(1)<<uint(len(p.active))-1
}

// Iterations returns the iterations lane l has stepped.
func (p *Packed) Iterations(l int) int { return p.iters[l] }

// Bits returns lane l's bit column: entry i is the bit local slot i read in
// the last iteration the lane was stepped (all zero once the lane is done:
// a terminated wave keeps emitting zero bits). Valid until the next step
// call.
func (p *Packed) Bits(l int) []uint8 {
	return p.bits[p.laneLo[l]:p.laneLo[l+1]]
}

// sweep advances lane l by one PASC iteration over the lane's contiguous
// slice of the shared order. The loop is branch-free: with a = "active
// participant" and rt = "root", the three comparator verdicts collapse to
// mask selects on the arriving track t —
//
//	exit = t ^ (a|rt)    (sources and active participants toggle the track)
//	bit  = (t ^ a ^ 1) &^ rt
//	       (active participants read t, passive slots and forwarders read
//	        the inverted track, sources read 0)
//
// and an active participant deactivates exactly when its bit is 1
// (d = a & bit). Every slot executes the same instructions; the verdicts
// live in the data.
func (p *Packed) sweep(l int) {
	deactivated := 0
	for _, u := range p.order[p.laneLo[l]:p.laneLo[l+1]] {
		t := p.arrival[p.pidx[u]] // roots read the pinned sentinel track 0
		a := p.part[u] & p.act[u]
		rt := p.root[u]
		p.arrival[u] = t ^ (a | rt)
		bit := (t ^ a ^ 1) &^ rt
		p.bits[u] = bit
		d := a & bit
		p.act[u] ^= d
		deactivated += int(d)
	}
	p.active[l] -= deactivated
	p.iters[l]++
	if p.active[l] == 0 {
		p.doneMask |= 1 << uint(l)
	}
}

// stepLane advances lane l within a joint iteration: a live lane sweeps,
// a finished lane only has its bits re-zeroed (once) — the all-zero sweep
// of a terminated wave, skipped.
func (p *Packed) stepLane(l int) {
	if !p.Done(l) {
		p.sweep(l)
		return
	}
	if p.zeroMask>>uint(l)&1 == 0 {
		clear(p.bits[p.laneLo[l]:p.laneLo[l+1]])
		p.zeroMask |= 1 << uint(l)
	}
}

// StepRound advances every lane by one joint iteration on one clock,
// charging the model cost of one PASC iteration: 2 rounds (track beep +
// shared termination beep, Lemma 4) and, per lane, the still-active
// participants plus the track beep. Lanes stepped together share the
// termination round, which is how the paper executes PASC instances "in
// parallel" (e.g. both directions of the line algorithm). Lanes that are
// already done keep emitting zero bits and keep costing their +1.
func (p *Packed) StepRound(clock *sim.Clock) {
	if !p.sealed {
		panic("wave: StepRound before Seal")
	}
	clock.Tick(2)
	beeps := int64(0)
	for l := range p.active {
		p.stepLane(l)
		beeps += int64(p.active[l]) + 1
	}
	clock.AddBeeps(beeps)
}
