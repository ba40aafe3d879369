// Package par is the deterministic intra-query parallel-execution layer.
//
// Everything above the query already fans out: engine.Batch spreads whole
// queries over a worker pool and the service shards whole structures. This
// package parallelizes the inside of a single query — the per-axis portal
// computations, per-region base cases and propagation components, the
// merges of one centroid level, and the index-space sweeps of SPT parent
// choice and of structure validation's edge/triangle tally — while keeping
// every output bit-for-bit identical at every worker count.
//
// The amoebot model itself licenses this: amoebots act simultaneously in
// every synchronous round, and circuits are disjoint per construction, so
// the host simulator merely recovers the parallelism the simulated system
// already has. Determinism is preserved by two rules:
//
//  1. Workers only write to disjoint index ranges (or worker-private
//     scratch drawn from a dense.Arena).
//  2. Reductions merge partial results in ascending chunk (= index) order,
//     never in arrival order, and every merge operation is associative over
//     contiguous splits (concatenation, sum, min, bitwise OR), so chunk
//     boundaries — which vary with the worker count — cannot show through.
//
// A nil *Exec (or Workers() == 1) degrades to the plain serial loop with
// zero goroutines, so the workers=1 configuration is exactly the serial
// code path and call sites do not branch on the worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spforest/internal/dense"
)

// minFanout is the smallest trip count worth fanning out; below it the
// goroutine hand-off costs more than the loop body saves. Determinism does
// not depend on the value (outputs are identical either way).
const minFanout = 64

// Exec is a deterministic parallel executor bound to a worker budget and a
// scratch arena. Exec is safe for concurrent use; queries of one engine
// share a single Exec. The zero value and nil both execute serially.
//
// The budget is a hard, executor-wide bound enforced by a token pool: the
// calling goroutine always works, and at most workers-1 extra goroutines
// exist across ALL concurrent and nested fan-outs of this Exec. A nested
// call (a base-case region spawning its own sweeps) or a concurrent query
// on the same engine finds the pool drained and simply runs inline — no
// oversubscription, and Batch's worker pool composes with IntraWorkers
// additively instead of multiplicatively. Which chunks run on which
// goroutine never affects outputs (the determinism rules above), so the
// throttling is invisible except in wall time.
type Exec struct {
	workers int
	arena   *dense.Arena
	tokens  chan struct{} // capacity workers-1; one token = the right to spawn one helper
}

// New returns an executor with the given worker budget drawing per-worker
// scratch from the arena. workers <= 0 means GOMAXPROCS; arena may be nil
// (scratch is then plainly allocated).
func New(workers int, arena *dense.Arena) *Exec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Exec{workers: workers, arena: arena}
	if workers > 1 {
		e.tokens = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			e.tokens <- struct{}{}
		}
	}
	return e
}

// acquire obtains the right to spawn one helper goroutine, without
// blocking: a drained pool (nested or concurrent fan-outs hold the
// tokens) means the caller does the work inline.
func (e *Exec) acquire() bool {
	if e == nil || e.tokens == nil {
		return false
	}
	select {
	case <-e.tokens:
		return true
	default:
		return false
	}
}

func (e *Exec) release() { e.tokens <- struct{}{} }

// Workers returns the worker budget (1 for a nil or zero-value Exec).
func (e *Exec) Workers() int {
	if e == nil || e.workers < 1 {
		return 1
	}
	return e.workers
}

// Arena returns the executor's scratch arena (nil degrades to allocation,
// matching dense.Arena's own nil behavior).
func (e *Exec) Arena() *dense.Arena {
	if e == nil {
		return nil
	}
	return e.arena
}

// parallel reports whether a loop of n iterations should fan out.
func (e *Exec) parallel(n int) bool {
	return e.Workers() > 1 && n >= minFanout
}

// For runs fn(i) for every i in [0, n), fanning the indices out over the
// worker budget. The caller guarantees that distinct indices touch disjoint
// mutable state; under that contract the result is identical to the serial
// loop. Indices are handed out dynamically (coarse items like per-region
// base cases balance load), so fn must not depend on execution order.
func (e *Exec) For(n int, fn func(i int)) {
	// Coarse-grained call sites (a handful of regions or axes) fan out even
	// below minFanout: each item is a whole sub-computation.
	if e.Workers() <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// The caller is one worker; helpers join as tokens allow. Indices are
	// handed out by atomic counter, so helpers and caller self-balance.
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 0; h < n-1 && e.acquire(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.release()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForChunks runs fn over contiguous chunks of [0, n), handing chunks out
// dynamically by atomic cursor. Like For, claims are dynamic so skewed
// per-index costs still balance; unlike For, one hand-off covers chunk
// indices, so huge trip counts (a 10⁵-query batch) pay one synchronization
// per chunk instead of one hand-off per index. fn must tolerate any claim
// order; the chunks partition [0, n) exactly.
func (e *Exec) ForChunks(n, chunk int, fn func(lo, hi int)) {
	if chunk < 1 {
		chunk = 1
	}
	if e.Workers() <= 1 || n <= chunk {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			lo := int(cursor.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	chunks := (n + chunk - 1) / chunk
	var wg sync.WaitGroup
	for h := 0; h < chunks-1 && e.acquire(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.release()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Reduce maps contiguous chunks of [0, n) in parallel and folds the partial
// results in ascending chunk order:
//
//	result = merge(merge(mapChunk(0,c), mapChunk(c,2c)), ...)
//
// The fold order is the determinism rule made executable: partials are
// combined by index position, never by completion order. Because chunk
// boundaries depend on the worker count, merge must additionally be
// associative over contiguous splits — mapChunk(lo,hi) must equal
// merge(mapChunk(lo,mid), mapChunk(mid,hi)) — which holds for the intended
// shapes (list concatenation in index order, sums, minima, bitset unions).
// With one worker (or a small n) Reduce is exactly mapChunk(0, n). n == 0
// yields the zero T.
func Reduce[T any](e *Exec, n int, mapChunk func(lo, hi int) T, merge func(acc, part T) T) T {
	var zero T
	if n == 0 {
		return zero
	}
	if !e.parallel(n) {
		return mapChunk(0, n)
	}
	workers := e.Workers()
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	parts := make([]T, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if c < chunks-1 && e.acquire() {
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				defer e.release()
				parts[c] = mapChunk(lo, hi)
			}(c, lo, hi)
		} else {
			parts[c] = mapChunk(lo, hi) // pool drained (or last chunk): inline
		}
	}
	wg.Wait()
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = merge(acc, p)
	}
	return acc
}
