package engine_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/scenario"
	"spforest/internal/shapes"
)

// The golden differential test pins the behavior of every registered solver
// on a fixed portfolio of structures: crafted shapes (stressing detours,
// visibility switching, cut vertices), parallelograms, random hole-free
// blobs, and two inputs that reach the forest algorithm's rarer steps. For
// each (structure, solver) pair the forest (as a parent vector), the
// simulated round count and the beep count are compared bit-for-bit
// against testdata/golden.json, which was captured from the map-based
// reference implementation before the dense index-space refactor. Any
// divergence — a different parent choice, one extra round — fails loudly.
//
// Regenerate (only when the simulated semantics intentionally change) with:
//
//	go test ./engine -run TestGoldenSolverOutputs -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

// goldenCrafted mirrors the crafted layouts of internal/core/crafted_test.go
// ('S' sources, 'D' destinations, 'o' plain amoebots).
var goldenCrafted = []struct{ name, layout string }{
	{"serpentine", `Soooooooooo
..........o
ooooooooooo
o..........
oooooooooDo`},
	{"castellation", `S.o.o.o.o.D
ooooooooooo
ooooooooooo`},
	{"plus", `....ooo....
....ooo....
ooooooooooo
oooSoooDooo
ooooooooooo
....ooo....
....ooo....`},
	{"deep-zigzag", `ooooooooooo
..........o
ooooooooooo
o..........
ooooooooooo
..........o
oSooooooooD`},
	{"dumbbell", `ooo......ooo
oSo......oDo
oooooooooooo`},
	{"teeth-up-down", `o.o.o.o.o.o
ooooooooooo
.o.o.S.o.o.`},
	{"single-row", `SooooDooooo`},
	{"two-amoebots", `SD`},
	{"l-shape", `Sooooo
o.....
o.....
oooooD`},
}

type goldenCase struct {
	name    string
	s       *amoebot.Structure
	sources []int32
}

type goldenRecord struct {
	Rounds  int64   `json:"rounds"`
	Beeps   int64   `json:"beeps"`
	Parents []int32 `json:"parents"` // -2 non-member, -1 root, else parent index
}

func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	for _, c := range goldenCrafted {
		s, marks, err := amoebot.ParseMap(c.layout)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var sources []int32
		for _, coord := range marks['S'] {
			i, _ := s.Index(coord)
			sources = append(sources, i)
		}
		// Give every case at least two sources (east-most amoebot), so the
		// forest algorithm exercises its divide-and-conquer path.
		last := int32(s.N() - 1)
		has := false
		for _, src := range sources {
			if src == last {
				has = true
			}
		}
		if !has {
			sources = append(sources, last)
		}
		cases = append(cases, goldenCase{name: "crafted/" + c.name, s: s, sources: sources})
	}
	for _, dim := range [][2]int{{8, 5}, {13, 7}} {
		s := shapes.Parallelogram(dim[0], dim[1])
		rng := rand.New(rand.NewSource(int64(dim[0])))
		cases = append(cases, goldenCase{
			name:    fmt.Sprintf("parallelogram/%dx%d", dim[0], dim[1]),
			s:       s,
			sources: shapes.RandomSubset(rng, s, 4),
		})
	}
	for _, n := range []int{120, 300, 800} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := shapes.RandomBlob(rng, n)
		k := 3
		if n >= 300 {
			k = 8
		}
		cases = append(cases, goldenCase{
			name:    fmt.Sprintf("blob/n=%d", n),
			s:       s,
			sources: shapes.RandomSubset(rng, s, k),
		})
	}
	// The forest algorithm's cut merge (mergePairAtCut) and its extension
	// over uncovered portal amoebots (extendAlongPortal) run on no case
	// above. The FuzzSolverAgreement seed lemma52-mark-segments reaches the
	// first and the registry scenario maze/9x7 the second, each with its
	// six-source spread set.
	lemma52 := shapes.FillHoles(shapes.RandomHoledBlob(rand.New(rand.NewSource(-135)), 34, 2))
	maze, _ := scenario.ByName("maze/9x7")
	for _, c := range []struct {
		name   string
		s      *amoebot.Structure
		spread []amoebot.Coord
	}{
		{"fuzz/lemma52-mark-segments", lemma52, scenario.SourceSets(-135, lemma52)[2]},
		{"scenario/maze-9x7", maze.S, maze.SourceSets()[2]},
	} {
		sources := make([]int32, len(c.spread))
		for i, coord := range c.spread {
			sources[i], _ = c.s.Index(coord)
		}
		cases = append(cases, goldenCase{name: c.name, s: c.s, sources: sources})
	}
	return cases
}

// goldenQuery shapes a query for the solver's arity rules.
func goldenQuery(s *amoebot.Structure, algo string, sources []int32) (engine.Query, bool) {
	coords := func(idxs []int32) []amoebot.Coord {
		out := make([]amoebot.Coord, len(idxs))
		for i, idx := range idxs {
			out[i] = s.Coord(idx)
		}
		return out
	}
	all := s.Coords()
	switch algo {
	case engine.AlgoSPT:
		return engine.Query{Algo: algo, Sources: coords(sources[:1]), Dests: all}, true
	case engine.AlgoSPSP:
		return engine.Query{Algo: algo, Sources: coords(sources[:1]), Dests: all[len(all)-1:]}, true
	case engine.AlgoSSSP:
		return engine.Query{Algo: algo, Sources: coords(sources[:1])}, true
	case engine.AlgoForest, engine.AlgoSequential, engine.AlgoExact:
		return engine.Query{Algo: algo, Sources: coords(sources), Dests: all}, true
	case engine.AlgoBFS:
		return engine.Query{Algo: algo, Sources: coords(sources)}, true
	default:
		return engine.Query{}, false // unknown third-party solver: skip
	}
}

func parentVector(f *amoebot.Forest) []int32 {
	n := f.Structure().N()
	out := make([]int32, n)
	for i := int32(0); i < int32(n); i++ {
		switch {
		case !f.Member(i):
			out[i] = -2
		default:
			out[i] = f.Parent(i)
		}
	}
	return out
}

func goldenPath(t testing.TB) string {
	return filepath.Join("testdata", "golden.json")
}

// goldenRun computes every (case, solver) record.
func goldenRun(t *testing.T) map[string]goldenRecord {
	got := map[string]goldenRecord{}
	for _, c := range goldenCases(t) {
		leader := c.s.Coord(c.sources[0])
		eng, err := engine.New(c.s, &engine.Config{Leader: &leader})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		algos := engine.Solvers()
		sort.Strings(algos)
		for _, algo := range algos {
			q, ok := goldenQuery(c.s, algo, c.sources)
			if !ok {
				continue
			}
			res, err := eng.Run(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, algo, err)
			}
			got[c.name+"/"+algo] = goldenRecord{
				Rounds:  res.Stats.Rounds,
				Beeps:   res.Stats.Beeps,
				Parents: parentVector(res.Forest),
			}
		}
	}
	return got
}

func TestGoldenSolverOutputs(t *testing.T) {
	got := goldenRun(t)
	path := goldenPath(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d records to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden: %d records computed, %d recorded", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("golden %s: missing from current run", k)
			continue
		}
		w := want[k]
		if g.Rounds != w.Rounds || g.Beeps != w.Beeps {
			t.Errorf("golden %s: rounds/beeps = %d/%d, want %d/%d", k, g.Rounds, g.Beeps, w.Rounds, w.Beeps)
		}
		if !reflect.DeepEqual(g.Parents, w.Parents) {
			t.Errorf("golden %s: forest parent vector diverges from the map-based reference", k)
		}
	}
}
