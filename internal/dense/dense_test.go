package dense

import (
	"sync"
	"testing"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.Has(0) || b.Has(129) || b.Count() != 0 {
		t.Fatal("new set not empty")
	}
	b.Add(0)
	b.Add(63)
	b.Add(64)
	b.Add(129)
	for _, i := range []int32{0, 63, 64, 129} {
		if !b.Has(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	b.Remove(63)
	if b.Has(63) || b.Count() != 3 {
		t.Fatal("remove failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestBitSetGrowClears(t *testing.T) {
	b := NewBitSet(200)
	b.Add(150)
	b.Grow(40) // shrink: capacity retained, contents cleared
	if b.Has(20) {
		t.Fatal("shrunken set not empty")
	}
	b.Grow(200) // re-grow within capacity: stale bit at 150 must be gone
	if b.Has(150) {
		t.Fatal("stale bit survived Grow")
	}
}

func TestIndexBasics(t *testing.T) {
	x := NewIndex(10)
	if x.Has(3) || x.At(3) != -1 {
		t.Fatal("new index not empty")
	}
	x.Set(3, 0)
	x.Set(7, 42)
	if v, ok := x.Get(3); !ok || v != 0 {
		t.Fatalf("Get(3) = %d,%v", v, ok)
	}
	if x.At(7) != 42 {
		t.Fatalf("At(7) = %d", x.At(7))
	}
	x.Delete(3)
	if x.Has(3) {
		t.Fatal("delete failed")
	}
	x.Reset()
	if x.Has(7) {
		t.Fatal("reset failed")
	}
}

func TestIndexRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	NewIndex(4).Set(0, -1)
}

func TestArenaReuseAndNil(t *testing.T) {
	a := NewArena()
	b := a.BitSet(100)
	b.Add(99)
	a.PutBitSet(b)
	b2 := a.BitSet(50)
	if b2.Has(30) {
		t.Fatal("recycled set not cleared")
	}
	a.PutBitSet(b2)

	x := a.Index(100)
	x.Set(10, 5)
	a.PutIndex(x)
	x2 := a.Index(100)
	if x2.Has(10) {
		t.Fatal("recycled index not cleared")
	}

	var nilA *Arena
	nb := nilA.BitSet(8)
	nb.Add(3)
	nilA.PutBitSet(nb) // must not panic
	nx := nilA.Index(8)
	nx.Set(1, 1)
	nilA.PutIndex(nx)
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 64 + (g+i)%512
				b := a.BitSet(n)
				x := a.Index(n)
				for j := int32(0); j < int32(n); j += 7 {
					b.Add(j)
					x.Set(j, j)
				}
				for j := int32(0); j < int32(n); j++ {
					if b.Has(j) != (j%7 == 0) || x.Has(j) != (j%7 == 0) {
						t.Errorf("goroutine %d: corrupted scratch at %d", g, j)
						return
					}
				}
				a.PutBitSet(b)
				a.PutIndex(x)
			}
		}(g)
	}
	wg.Wait()
}

// TestArenaDiscardsOversizedBuffers pins the retention high-water mark:
// buffers beyond the bound are dropped on Put so one huge query cannot pin
// its scratch for the arena's lifetime. Only the discard direction is
// asserted by identity (got == huge can never hold on correct code); the
// keep direction is not identity-checked because sync.Pool may legally
// drop any entry at a GC, which would flake the test.
func TestArenaDiscardsOversizedBuffers(t *testing.T) {
	a := NewArena()

	huge := NewBitSet(64*MaxRetainedBitSetWords + 1)
	if cap(huge.words) <= MaxRetainedBitSetWords {
		t.Fatalf("test bug: huge bitset capacity %d not over the bound", cap(huge.words))
	}
	a.PutBitSet(huge)
	for i := 0; i < 4; i++ { // drain whatever the pool holds
		if got := a.BitSet(10); got == huge {
			t.Fatalf("bitset over the high-water mark was pooled")
		}
	}

	hugeIdx := NewIndex(MaxRetainedIndexEntries + 1)
	a.PutIndex(hugeIdx)
	for i := 0; i < 4; i++ {
		if got := a.Index(10); got == hugeIdx {
			t.Fatalf("index over the high-water mark was pooled")
		}
	}

	// At-bound buffers must be accepted back (no identity assertion —
	// only that the arena keeps functioning and Put does not panic).
	a.PutBitSet(NewBitSet(64 * MaxRetainedBitSetWords))
	a.PutIndex(NewIndex(MaxRetainedIndexEntries))
	if got := a.BitSet(10); got.Count() != 0 {
		t.Fatalf("recycled bitset not cleared")
	}
	if got := a.Index(10); got.Has(3) {
		t.Fatalf("recycled index not cleared")
	}
}

// requireFilled fails unless every entry of col up to its capacity holds
// fill.
func requireFilled(t *testing.T, ctx string, col []int32, fill int32) {
	t.Helper()
	for i, v := range col[:cap(col)] {
		if v != fill {
			t.Errorf("%s: entry %d of %d holds %d, want %d", ctx, i, cap(col), v, fill)
			return
		}
	}
}

// TestColumnsRecycleFilled pins the sparse reset of Columns: after
// Put(col, touched), Take returns a column holding the fill in every entry
// up to its capacity, a pooled column too small for a take is never
// handed out, and concurrent users each see clean columns.
func TestColumnsRecycleFilled(t *testing.T) {
	c := NewColumns(-1)
	col := c.Take(100)
	requireFilled(t, "fresh column", col, -1)
	touched := []int32{0, 3, 50, 99}
	for _, i := range touched {
		col[i] = i
	}
	c.Put(col, touched)
	for i := 0; i < 4; i++ {
		got := c.Take(60)
		if len(got) != 60 {
			t.Fatalf("Take(60) has length %d", len(got))
		}
		requireFilled(t, "recycled column", got, -1)
		got[7], got[59] = 7, 59
		c.Put(got, []int32{7, 59})
	}

	small := c.Take(10)
	small[2] = 2
	c.Put(small, []int32{2})
	for i := 0; i < 4; i++ {
		got := c.Take(200)
		if len(got) != 200 || &got[0] == &small[0] {
			t.Fatalf("Take(200) handed out a column of capacity %d", cap(got))
		}
		requireFilled(t, "column after a too-small one", got, -1)
		c.Put(got, nil)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n := 32 + (g*131+i*17)%400
				col := c.Take(n)
				requireFilled(t, "concurrent take", col, -1)
				var touched []int32
				for j := int32(g+i) % 5; j < int32(n); j += 5 {
					col[j] = j
					touched = append(touched, j)
				}
				c.Put(col, touched)
			}
		}(g)
	}
	wg.Wait()
}
