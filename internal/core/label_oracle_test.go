package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/core"
	"spforest/internal/scenario"
	"spforest/internal/shapes"
)

// walkedLabels returns, per node of the structure, the depth + 1 of a
// member of f, walked up its parent links, and 0 for a non-member. The walk
// is memoized, so one call costs O(n); a parent cycle or a parent outside
// the forest is an error.
func walkedLabels(f *amoebot.Forest) ([]int32, error) {
	n := int32(f.Structure().N())
	want := make([]int32, n)
	var path []int32
	for u := int32(0); u < n; u++ {
		if !f.Member(u) {
			continue
		}
		v := u
		for want[v] == 0 && f.Parent(v) != amoebot.None {
			if len(path) > int(n) {
				return nil, fmt.Errorf("parent cycle through %d", u)
			}
			path = append(path, v)
			v = f.Parent(v)
			if !f.Member(v) {
				return nil, fmt.Errorf("member %d has non-member parent %d", path[len(path)-1], v)
			}
		}
		if want[v] == 0 {
			want[v] = 1 // a root
		}
		for i := len(path) - 1; i >= 0; i-- {
			want[path[i]] = want[f.Parent(path[i])] + 1
		}
		path = path[:0]
	}
	return want, nil
}

// fuzzSolverAgreementCorpus returns the (seed, n, holes) inputs of
// FuzzSolverAgreement's seed corpus: the f.Add calls in engine/fuzz_test.go
// and the entries under engine/testdata/fuzz/FuzzSolverAgreement.
func fuzzSolverAgreementCorpus(t *testing.T) [][3]int64 {
	corpus := [][3]int64{{1, 80, 0}, {2, 120, 2}, {3, 40, 1}, {4, 200, 5}, {5, 1, 0}}
	files, err := filepath.Glob(filepath.Join("..", "..", "engine", "testdata", "fuzz", "FuzzSolverAgreement", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzSolverAgreement corpus files: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var in [3]int64
		lines := strings.Fields(string(data))[4:] // after "go test fuzz v1"
		if len(lines) != 3 {
			t.Fatalf("%s: %d values, want 3", file, len(lines))
		}
		for i, line := range lines {
			v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(line, "int64("), ")"), 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			in[i] = v
		}
		corpus = append(corpus, in)
	}
	return corpus
}

// fuzzStructure is the hole-free structure FuzzSolverAgreement runs the
// forest algorithm on for one corpus input: the blob itself, or the
// hole-free closure of the holed blob.
func fuzzStructure(in [3]int64) *amoebot.Structure {
	abs := func(v int64) int64 { // engine's abs64: math.MinInt64 maps to 0
		if v < 0 {
			if v == -v {
				return 0
			}
			return -v
		}
		return v
	}
	targetN := int(20 + abs(in[1])%230)
	holes := int(abs(in[2]) % 5)
	rng := rand.New(rand.NewSource(in[0]))
	if holes == 0 {
		return shapes.RandomBlob(rng, targetN)
	}
	return shapes.FillHoles(shapes.RandomHoledBlob(rng, targetN, holes))
}

// TestForestStepLabelsMatchWalkedDepths is the label oracle: after every
// step of the forest path — the line algorithm, propagation, merging and
// the two extensions of a merge — every node of the structure holds the
// label its forest implies, depth + 1 walked up the parent links for a
// member and 0 for a non-member. It checks the whole structure, not the
// step's region: extendAlongPortal labels portal amoebots outside it. The
// inputs are the forest queries of the differential harness on the 28
// registry scenarios (holed ones through their hole-free closure) and on
// FuzzSolverAgreement's seed corpus, each with its three source sets.
func TestForestStepLabelsMatchWalkedDepths(t *testing.T) {
	var mu sync.Mutex
	steps := map[string]int{}
	var failures []string
	core.SetLabelHook(func(step string, f *amoebot.Forest, label []int32) {
		want, err := walkedLabels(f)
		msg := ""
		if err != nil {
			msg = fmt.Sprintf("%s: forest: %v", step, err)
		} else {
			for u, w := range want {
				if label[u] != w {
					msg = fmt.Sprintf("%s: node %d label %d, walked %d", step, u, label[u], w)
					break
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		steps[step]++
		if msg != "" {
			failures = append(failures, msg)
		}
	})
	defer core.SetLabelHook(nil)

	run := func(name string, s *amoebot.Structure, sets [][]amoebot.Coord) {
		t.Helper()
		e, err := engine.New(s, &engine.Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, srcs := range sets {
			if _, err := e.Run(engine.Query{Algo: engine.AlgoForest, Sources: srcs, Dests: s.Coords()}); err != nil {
				t.Fatalf("%s, source set %d: %v", name, i, err)
			}
			mu.Lock()
			failed := failures
			mu.Unlock()
			if len(failed) > 0 {
				t.Fatalf("%s, source set %d: %s", name, i, failed[0])
			}
		}
	}
	all := scenario.All()
	if len(all) != 28 {
		t.Fatalf("%d registry scenarios, want 28", len(all))
	}
	for _, sc := range all {
		s := sc.S
		if sc.Holed() {
			s = shapes.FillHoles(s)
		}
		run(sc.Name, s, sc.SourceSets())
	}
	for _, in := range fuzzSolverAgreementCorpus(t) {
		s := fuzzStructure(in)
		run(fmt.Sprintf("fuzz %v", in), s, scenario.SourceSets(in[0], s))
	}
	for _, step := range []string{"line", "propagate", "merge", "extendThroughCut", "extendAlongPortal"} {
		if steps[step] == 0 {
			t.Errorf("no %s step ran", step)
		}
	}
	t.Logf("checked steps: %v", steps)
}
