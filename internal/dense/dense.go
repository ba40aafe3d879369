// Package dense provides allocation-free set and map scratch structures
// over dense int32 index spaces, plus a pooling Arena and a sparse-reset
// column pool (Columns) that recycle them across queries.
//
// Every hot loop of the solver stack operates on node or portal indices
// that are already dense identifiers in [0, n): structure nodes, portal
// ids, local tree slots. Hash sets (map[int32]bool) and hash maps
// (map[int32]int32) over such keys pay hashing and per-entry allocation
// for nothing — a bitset answers membership in one AND and a flat slice
// answers lookup in one load. The BitSet and Index types here are those
// replacements; the Arena recycles their backing arrays through
// sync.Pools so a long-lived engine serves repeated queries with near-zero
// steady-state allocation in the index-space scratch.
package dense

import (
	"math/bits"
	"sync"
)

// BitSet is a set of int32 ids in [0, n), backed by a word array. The zero
// value is an empty set of capacity 0; size it with Grow or obtain one from
// an Arena.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty set with capacity for ids in [0, n).
func NewBitSet(n int) *BitSet {
	b := &BitSet{}
	b.Grow(n)
	return b
}

// Grow re-sizes the set to hold ids in [0, n) and clears it.
func (b *BitSet) Grow(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	clear(b.words)
}

// Add inserts id i.
func (b *BitSet) Add(i int32) { b.words[i>>6] |= 1 << uint(i&63) }

// Remove deletes id i.
func (b *BitSet) Remove(i int32) { b.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether id i is in the set.
func (b *BitSet) Has(i int32) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Reset clears the set, keeping its capacity.
func (b *BitSet) Reset() { clear(b.words) }

// Extend grows the set to hold ids in [0, n), preserving its contents
// (unlike Grow, which clears).
func (b *BitSet) Extend(n int) {
	w := (n + 63) / 64
	for len(b.words) < w {
		b.words = append(b.words, 0)
	}
}

// Or unions o into b. o must not hold ids beyond b's capacity; trailing
// words of a larger-capacity (but id-compatible) o are tolerated, not
// ranged over.
func (b *BitSet) Or(o *BitSet) {
	n := len(o.words)
	if n > len(b.words) {
		n = len(b.words)
	}
	for i, w := range o.words[:n] {
		b.words[i] |= w
	}
}

// Count returns the number of ids in the set.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Index is a map from int32 keys in [0, n) to int32 values ≥ 0, backed by a
// flat slice. Internally values are stored shifted by one so that the zero
// word means "absent" and Reset is a single memclr. The zero value is an
// empty index of capacity 0; size it with Grow or obtain one from an Arena.
type Index struct {
	vals []int32 // stored value + 1; 0 = absent
}

// NewIndex returns an empty index with capacity for keys in [0, n).
func NewIndex(n int) *Index {
	x := &Index{}
	x.Grow(n)
	return x
}

// Grow re-sizes the index to hold keys in [0, n) and clears it.
func (x *Index) Grow(n int) {
	if cap(x.vals) < n {
		x.vals = make([]int32, n)
		return
	}
	x.vals = x.vals[:n]
	clear(x.vals)
}

// Set maps key k to value v (which must be ≥ 0).
func (x *Index) Set(k, v int32) {
	if v < 0 {
		panic("dense: Index values must be non-negative")
	}
	x.vals[k] = v + 1
}

// Delete removes key k.
func (x *Index) Delete(k int32) { x.vals[k] = 0 }

// Get returns the value mapped to k and whether k is present.
func (x *Index) Get(k int32) (int32, bool) {
	v := x.vals[k]
	return v - 1, v != 0
}

// At returns the value mapped to k, or -1 when k is absent.
func (x *Index) At(k int32) int32 { return x.vals[k] - 1 }

// Has reports whether key k is present.
func (x *Index) Has(k int32) bool { return x.vals[k] != 0 }

// Reset clears the index, keeping its capacity.
func (x *Index) Reset() { clear(x.vals) }

// Retention high-water marks: buffers above these capacities are dropped
// on Put instead of pooled. sync.Pool never shrinks a pinned buffer, so
// without the bound one huge query (say a million-node validation sweep)
// would park multi-megabyte scratch arrays in the pool for the engine's
// lifetime, even if every later query is a thousand times smaller. Both
// bounds admit ~2M ids — comfortably above every benchmark structure — and
// cap a retained BitSet at 256 KiB and a retained Index at 8 MiB.
const (
	// MaxRetainedBitSetWords bounds the word capacity of pooled BitSets.
	MaxRetainedBitSetWords = 1 << 15
	// MaxRetainedIndexEntries bounds the entry capacity of pooled Indexes.
	MaxRetainedIndexEntries = 1 << 21
)

// Arena recycles BitSets, Indexes and raw SoA slices through sync.Pools.
// Engines hold one
// arena each and thread it through their query contexts, so a stream of
// queries against one engine reuses the same scratch arrays instead of
// reallocating them; the free-function entry points use a per-call arena,
// which still amortizes the scratch inside one invocation. All methods are
// safe for concurrent use, and a nil *Arena degrades to plain allocation,
// so call sites never need to branch.
//
// Oversized buffers (capacities beyond MaxRetainedBitSetWords /
// MaxRetainedIndexEntries) are discarded on Put rather than pooled, so one
// outlier query cannot pin its scratch forever.
type Arena struct {
	bitsets sync.Pool
	indexes sync.Pool
	int32s  sync.Pool
	bytes   sync.Pool
	bools   sync.Pool
}

// NewArena returns an empty arena. The zero value is also ready to use.
func NewArena() *Arena { return &Arena{} }

// BitSet returns a cleared set with capacity for ids in [0, n).
func (a *Arena) BitSet(n int) *BitSet {
	if a == nil {
		return NewBitSet(n)
	}
	if b, ok := a.bitsets.Get().(*BitSet); ok {
		b.Grow(n)
		return b
	}
	return NewBitSet(n)
}

// PutBitSet returns a set obtained from BitSet to the arena. Sets larger
// than the retention high-water mark are dropped for the GC instead.
func (a *Arena) PutBitSet(b *BitSet) {
	if a != nil && b != nil && cap(b.words) <= MaxRetainedBitSetWords {
		a.bitsets.Put(b)
	}
}

// Index returns a cleared index with capacity for keys in [0, n).
func (a *Arena) Index(n int) *Index {
	if a == nil {
		return NewIndex(n)
	}
	if x, ok := a.indexes.Get().(*Index); ok {
		x.Grow(n)
		return x
	}
	return NewIndex(n)
}

// PutIndex returns an index obtained from Index to the arena. Indexes
// larger than the retention high-water mark are dropped for the GC instead.
func (a *Arena) PutIndex(x *Index) {
	if a != nil && x != nil && cap(x.vals) <= MaxRetainedIndexEntries {
		a.indexes.Put(x)
	}
}

// Int32s returns a zeroed []int32 of length n. It is the raw-slice arm of
// the arena, for SoA state arrays (PASC comparator columns, per-node
// minima) whose types don't fit BitSet or Index; like them, the backing
// array is recycled through a pool, so steady-state queries allocate
// nothing here.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if p, ok := a.int32s.Get().(*[]int32); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]int32, n)
}

// PutInt32s returns a slice obtained from Int32s to the arena. Slices
// larger than the retention high-water mark are dropped for the GC instead.
func (a *Arena) PutInt32s(s []int32) {
	if a == nil || cap(s) == 0 || cap(s) > MaxRetainedIndexEntries {
		return
	}
	s = s[:0]
	a.int32s.Put(&s)
}

// Bytes returns a zeroed []uint8 of length n (the byte-wide counterpart of
// Int32s, for branch-free flag columns).
func (a *Arena) Bytes(n int) []uint8 {
	if a == nil {
		return make([]uint8, n)
	}
	if p, ok := a.bytes.Get().(*[]uint8); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]uint8, n)
}

// PutBytes returns a slice obtained from Bytes to the arena.
func (a *Arena) PutBytes(s []uint8) {
	if a == nil || cap(s) == 0 || cap(s) > MaxRetainedIndexEntries {
		return
	}
	s = s[:0]
	a.bytes.Put(&s)
}

// Bools returns a zeroed []bool of length n, for boolean scratch columns
// (membership marks, visited flags) handed to APIs that take []bool rather
// than the byte flag columns of Bytes.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	if p, ok := a.bools.Get().(*[]bool); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]bool, n)
}

// PutBools returns a slice obtained from Bools to the arena.
func (a *Arena) PutBools(s []bool) {
	if a == nil || cap(s) == 0 || cap(s) > MaxRetainedIndexEntries {
		return
	}
	s = s[:0]
	a.bools.Put(&s)
}

// Shared is the process-wide fallback arena used by code without an engine
// in scope (Region.Components, leader election, the free-function solver
// entry points).
var Shared = NewArena()

// Columns recycles n-sized []int32 columns for users that write a small
// part of each: every entry of a pooled column, up to its capacity, holds
// the fill value, so Take costs no pass over n and Put restores only the
// written entries (Arena.Int32s clears all n on every take). Safe for
// concurrent use.
type Columns struct {
	fill int32
	pool sync.Pool
}

// NewColumns returns an empty pool of columns filled with fill.
func NewColumns(fill int32) *Columns { return &Columns{fill: fill} }

// Take returns a column of length n holding the fill value in every entry.
// A pooled column too small for n is dropped for a new one, filled once.
func (c *Columns) Take(n int) []int32 {
	if p, ok := c.pool.Get().(*[]int32); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	s := make([]int32, n)
	if c.fill != 0 {
		for i := range s {
			s[i] = c.fill
		}
	}
	return s
}

// Put restores the fill at touched, which must hold every index written
// since Take, and pools the column unless it exceeds the retention bound.
// A user panicking between Take and Put drops its column, never dirty.
func (c *Columns) Put(col []int32, touched []int32) {
	if cap(col) == 0 || cap(col) > MaxRetainedIndexEntries {
		return
	}
	for _, i := range touched {
		col[i] = c.fill
	}
	col = col[:0]
	c.pool.Put(&col)
}
