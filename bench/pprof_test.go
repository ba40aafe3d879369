package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestFrameAttribution(t *testing.T) {
	for _, c := range []struct{ fn, pkg, module string }{
		{"spforest/internal/core.(*Env).Lanes", "spforest/internal/core", "core"},
		{"spforest/amoebot.(*Region).Contains", "spforest/amoebot", "amoebot"},
		{"spforest/engine.(*Engine).Batch.func1", "spforest/engine", "engine"},
		{"spforest/internal/par.Reduce[go.shape.int32]", "spforest/internal/par", "par"},
		{"spforest/internal/par.Reduce[spforest/internal/core.x]", "spforest/internal/par", "par"},
		{"spforest/service.(*Batcher).run", "spforest/service", "service"},
		{"spforest.RandomBlob", "spforest", "spforest"},
		{"runtime.memclrNoHeapPointers", "runtime", ""},
		{"net/http.(*conn).serve", "net/http", ""},
		{"main.runForest", "main", ""},
	} {
		if got := packageOf(c.fn); got != c.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := moduleOf(c.fn); got != c.module {
			t.Errorf("moduleOf(%q) = %q, want %q", c.fn, got, c.module)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "spforest/amoebot.NewForest", "spforest/internal/core.SPTEnv"}, "amoebot"},
		{[]string{"spforest/internal/wave.(*Packed).sweep", "spforest/internal/core.MergeManyEnv"}, "wave"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "spforest/internal/core.SPTEnv"}, "runtime_gc"},
		{[]string{"spforest/service.(*Batcher).flush", "spforest/engine.(*Engine).Batch"}, "other"},
		{[]string{"main.runForest", "runtime.main"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// TestDecodeRealProfile profiles a busy loop half inside and half outside the
// untimed label, and decodes the profile with the package's own decoder.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	const work = 300_000_000
	sink := spin(work)
	untimed(func() error { sink += spin(work); return nil })
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Log("unreachable; keeps the loops alive")
	}

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var timed, labeled int
	for _, s := range samples {
		if s.weight <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample without weight or stack: %+v", s)
		}
		if s.untimed {
			labeled++
		} else if strings.HasSuffix(s.stack[0], ".spin") {
			timed++
		}
	}
	if timed == 0 || labeled == 0 {
		t.Fatalf("%d samples: %d in the unlabeled loop, %d labeled untimed", len(samples), timed, labeled)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["other"] != 1 {
		t.Errorf("a loop outside the repository should be all \"other\": %v", shares)
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
