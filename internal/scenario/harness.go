package scenario

import (
	"bytes"
	"fmt"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/baseline"
	"spforest/internal/shapes"
)

// This file is the differential verification harness: every registered
// scenario is checked structurally (expected holes, encoding round-trip,
// translation/rotation invariance of distances) and then differentially
// against the centralized ground truth. Hole-free scenarios run every
// registered solver and require, per solver: the five (S,D)-SPF
// properties (whose property 5 pins every member's depth bit-exactly to
// the exact nearest-source distance — the strongest agreement possible
// between non-unique shortest-path forests), rounds/beeps sanity, and
// run-to-run determinism; the centralized "exact" solver must reproduce
// baseline.ExactForest byte-for-byte. Holed scenarios run the
// hole-tolerant solvers under engine.Config.AllowHoles, assert that the
// portal-based solvers refuse with a precondition error instead of
// corrupting, and run the full battery on the scenario's hole-free
// closure. The harness returns errors instead of taking *testing.T so the
// same checks back tests, fuzz targets and external tooling.

// Check runs the full battery for one scenario.
func Check(sc Scenario) error {
	if err := CheckStructure(sc); err != nil {
		return err
	}
	seed := nameSeed(sc.Name)
	if !sc.Holed() {
		return CheckSolvers(sc.S, seed)
	}
	if err := CheckHoleTolerant(sc.S, seed); err != nil {
		return fmt.Errorf("%s: %w", sc.Name, err)
	}
	filled := shapes.FillHoles(sc.S)
	if h := filled.Holes(); h != 0 {
		return fmt.Errorf("%s: hole-free closure still has %d hole(s)", sc.Name, h)
	}
	if err := CheckSolvers(filled, seed); err != nil {
		return fmt.Errorf("%s (filled closure): %w", sc.Name, err)
	}
	return nil
}

// CheckStructure checks the scenario's invariants that need no solver:
// connectivity, the expected hole count, the text-encoding round-trip and
// the metamorphic distance properties.
func CheckStructure(sc Scenario) error {
	s := sc.S
	if !s.IsConnected() {
		return fmt.Errorf("%s: structure is disconnected", sc.Name)
	}
	if got := s.Holes(); got != sc.Holes {
		return fmt.Errorf("%s: %d hole(s), registry expects %d", sc.Name, got, sc.Holes)
	}
	if err := checkEncodingRoundTrip(s); err != nil {
		return fmt.Errorf("%s: %w", sc.Name, err)
	}
	if err := checkTransformInvariance(s, nameSeed(sc.Name)); err != nil {
		return fmt.Errorf("%s: %w", sc.Name, err)
	}
	return nil
}

// checkEncodingRoundTrip: MarshalText → ParseStructure reproduces the
// structure exactly (fingerprint equality implies coordinate-set
// equality).
func checkEncodingRoundTrip(s *amoebot.Structure) error {
	data, err := s.MarshalText()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	rt, err := amoebot.ParseStructure(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if rt.N() != s.N() || rt.Fingerprint() != s.Fingerprint() {
		return fmt.Errorf("encoding round-trip changed the structure (n %d→%d, fp %s→%s)",
			s.N(), rt.N(), s.Fingerprint(), rt.Fingerprint())
	}
	return nil
}

// checkTransformInvariance: graph distances are invariant under the grid's
// isometries. The structure is translated, rotated by 60° and both; the
// exact nearest-source distances of corresponding nodes must match
// exactly. This catches generators (or adjacency code) that silently
// depend on absolute coordinates.
func checkTransformInvariance(s *amoebot.Structure, seed int64) error {
	srcs := SourceSets(seed, s)[1]
	dist, err := exactDistByCoord(s, srcs)
	if err != nil {
		return err
	}
	shift := amoebot.XZ(7, -3)
	transforms := []struct {
		name string
		f    func(amoebot.Coord) amoebot.Coord
	}{
		{"translate", func(c amoebot.Coord) amoebot.Coord { return c.Add(shift) }},
		{"rotate60", amoebot.Coord.Rotate60},
		{"rotate60+translate", func(c amoebot.Coord) amoebot.Coord { return c.Rotate60().Add(shift) }},
	}
	for _, tr := range transforms {
		tcoords := make([]amoebot.Coord, s.N())
		for i, c := range s.Coords() {
			tcoords[i] = tr.f(c)
		}
		ts, err := amoebot.NewStructure(tcoords)
		if err != nil {
			return fmt.Errorf("%s: %w", tr.name, err)
		}
		tsrcs := make([]amoebot.Coord, len(srcs))
		for i, c := range srcs {
			tsrcs[i] = tr.f(c)
		}
		tdist, err := exactDistByCoord(ts, tsrcs)
		if err != nil {
			return fmt.Errorf("%s: %w", tr.name, err)
		}
		for _, c := range s.Coords() {
			if dist[c] != tdist[tr.f(c)] {
				return fmt.Errorf("%s: distance at %v changed %d → %d under the isometry",
					tr.name, c, dist[c], tdist[tr.f(c)])
			}
		}
	}
	return nil
}

// exactDistByCoord returns the nearest-source distances keyed by
// coordinate (structure indices are not transform-stable).
func exactDistByCoord(s *amoebot.Structure, srcs []amoebot.Coord) (map[amoebot.Coord]int32, error) {
	idx, err := resolveCoords(s, srcs)
	if err != nil {
		return nil, err
	}
	dist, _ := baseline.ExactExec(nil, amoebot.WholeRegion(s), idx)
	out := make(map[amoebot.Coord]int32, s.N())
	for i, c := range s.Coords() {
		out[c] = dist[int32(i)]
	}
	return out, nil
}

// CheckSolvers runs the all-solver differential battery on a hole-free
// structure: every registered solver × every deterministic source set,
// each forest checked against the centralized ground truth.
func CheckSolvers(s *amoebot.Structure, seed int64) error {
	return CheckSolversConfig(s, seed, engine.Config{})
}

// CheckSolversConfig is CheckSolvers under a caller-supplied base engine
// configuration (the harness seed overrides base.Seed). The parallel
// determinism matrix uses it to run the identical battery at several
// IntraWorkers settings; any output drift fails the ground-truth or
// determinism checks.
func CheckSolversConfig(s *amoebot.Structure, seed int64, base engine.Config) error {
	base.Seed = seed
	e, err := engine.New(s, &base)
	if err != nil {
		return err
	}
	sets := SourceSets(seed, s)
	all := s.Coords()
	spread := sets[len(sets)-1]
	for _, srcs := range sets {
		for _, algo := range engine.Solvers() {
			if err := checkSolverOnce(e, algo, srcs, spread, all); err != nil {
				return err
			}
		}
	}
	return checkDeterminism(s, base, sets[0])
}

// exactMatchesBaseline: the engine's centralized backend must reproduce
// baseline.ExactForest byte-for-byte.
func exactMatchesBaseline(e *engine.Engine, q engine.Query, res *engine.Result) error {
	s := e.Structure()
	got, _ := res.Forest.MarshalText()
	srcIdx, err := resolveCoords(s, q.Sources)
	if err != nil {
		return err
	}
	destIdx, err := resolveCoords(s, q.Dests)
	if err != nil {
		return err
	}
	ref := baseline.ExactForest(e.Region(), srcIdx, destIdx)
	if ref == nil {
		return fmt.Errorf("exact: baseline.ExactForest failed to cover a destination")
	}
	want, _ := ref.MarshalText()
	if !bytes.Equal(got, want) {
		return fmt.Errorf("exact: engine solver and baseline.ExactForest disagree byte-wise")
	}
	return nil
}

// checkSolverOnce runs one solver with arity-appropriate sources and
// destinations and checks its forest and round accounting.
func checkSolverOnce(e *engine.Engine, algo string, srcs, spread, all []amoebot.Coord) error {
	q, verifyDests := QueryFor(algo, srcs, spread, all)
	res, err := e.Run(q)
	if err != nil {
		return fmt.Errorf("%s: %w", algo, err)
	}
	// Bit-exact agreement with the ground truth: the five SPF properties,
	// whose property 5 requires depth(v) == dist(S, v) for every member.
	if err := e.Verify(q.Sources, verifyDests, res.Forest); err != nil {
		return fmt.Errorf("%s: %w", algo, err)
	}
	if algo == engine.AlgoExact {
		if err := exactMatchesBaseline(e, q, res); err != nil {
			return err
		}
	}
	return checkRounds(e, algo, q, res)
}

// checkRounds asserts the per-solver round/beep accounting invariants.
func checkRounds(e *engine.Engine, algo string, q engine.Query, res *engine.Result) error {
	st := res.Stats
	if st.Rounds < 0 || st.Beeps < 0 {
		return fmt.Errorf("%s: negative accounting: %+v", algo, st)
	}
	switch algo {
	case engine.AlgoExact:
		if st.Rounds != 0 {
			return fmt.Errorf("%s: centralized solver charged %d rounds", algo, st.Rounds)
		}
	case engine.AlgoBFS:
		srcIdx, err := resolveCoords(e.Structure(), q.Sources)
		if err != nil {
			return err
		}
		// The wavefront ticks once per distance layer plus the final layer's
		// empty probe: eccentricity+1 rounds exactly.
		if ecc := int64(baseline.Eccentricity(e.Region(), srcIdx)); st.Rounds != ecc+1 {
			return fmt.Errorf("%s: %d rounds, want eccentricity+1 = %d", algo, st.Rounds, ecc+1)
		}
	default:
		if e.Structure().N() > 1 && st.Rounds <= 0 {
			return fmt.Errorf("%s: distributed solver charged no rounds on %d amoebots",
				algo, e.Structure().N())
		}
	}
	return nil
}

// QueryFor builds the arity-appropriate query running solver algo with
// the given source set: multi-source solvers keep srcs and target every
// amoebot, the single-source family keeps srcs[0] and targets the spread
// set (SPSP its first non-source element). The returned coordinate slice
// is the destination set the solver's forest verifies against (solvers
// that ignore or imply destinations span every amoebot). Shared by the
// harness and the spfbench E15 sweep so both drive solvers identically.
func QueryFor(algo string, srcs, spread, all []amoebot.Coord) (engine.Query, []amoebot.Coord) {
	switch algo {
	case engine.AlgoSPT:
		return engine.Query{Algo: algo, Sources: srcs[:1], Dests: spread}, spread
	case engine.AlgoSPSP:
		dest := spread[0]
		for _, c := range spread {
			if c != srcs[0] {
				dest = c
				break
			}
		}
		d := []amoebot.Coord{dest}
		return engine.Query{Algo: algo, Sources: srcs[:1], Dests: d}, d
	case engine.AlgoSSSP:
		return engine.Query{Algo: algo, Sources: srcs[:1]}, all
	case engine.AlgoBFS:
		return engine.Query{Algo: algo, Sources: srcs}, all
	default: // forest, sequential, exact: full (S,D) arity
		return engine.Query{Algo: algo, Sources: srcs, Dests: all}, all
	}
}

// checkDeterminism: two engines with the same configuration must answer
// the same forest query with identical forests and identical round/beep
// accounting (the first query pays the same lazy election on both).
func checkDeterminism(s *amoebot.Structure, cfg engine.Config, srcs []amoebot.Coord) error {
	q := engine.Query{Algo: engine.AlgoForest, Sources: srcs, Dests: s.Coords()}
	var prev *engine.Result
	for run := 0; run < 2; run++ {
		e, err := engine.New(s, &cfg)
		if err != nil {
			return err
		}
		res, err := e.Run(q)
		if err != nil {
			return fmt.Errorf("determinism run %d: %w", run, err)
		}
		if prev != nil {
			a, _ := prev.Forest.MarshalText()
			b, _ := res.Forest.MarshalText()
			if !bytes.Equal(a, b) {
				return fmt.Errorf("determinism: same seed produced different forests")
			}
			if prev.Stats.Rounds != res.Stats.Rounds || prev.Stats.Beeps != res.Stats.Beeps {
				return fmt.Errorf("determinism: same seed charged %d/%d then %d/%d rounds/beeps",
					prev.Stats.Rounds, prev.Stats.Beeps, res.Stats.Rounds, res.Stats.Beeps)
			}
		}
		prev = res
	}
	return nil
}

// CheckHoleTolerant runs the hole-aware half of the battery on a holed
// structure: the default engine must reject it, an AllowHoles engine must
// serve the hole-tolerant solvers with ground-truth agreement, and the
// portal-based solvers must refuse with a precondition error.
func CheckHoleTolerant(s *amoebot.Structure, seed int64) error {
	if _, err := engine.New(s, nil); err == nil {
		return fmt.Errorf("holed structure accepted without AllowHoles")
	}
	e, err := engine.New(s, &engine.Config{Seed: seed, AllowHoles: true})
	if err != nil {
		return err
	}
	if !e.Holed() {
		return fmt.Errorf("AllowHoles engine does not report holes")
	}
	sets := SourceSets(seed, s)
	all := s.Coords()
	spread := sets[len(sets)-1]
	for _, srcs := range sets {
		for _, algo := range engine.Solvers() {
			if !engine.HoleTolerant(algo) {
				q, _ := QueryFor(algo, srcs, spread, all)
				if _, err := e.Run(q); err == nil {
					return fmt.Errorf("%s: ran on a holed structure", algo)
				}
				continue
			}
			// The tolerant solvers run the same battery as on hole-free
			// structures: five SPF properties (depth == exact distance per
			// member), ground-truth byte equality for exact, rounds sanity.
			if err := checkSolverOnce(e, algo, srcs, spread, all); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckChurn checks the incremental-engine metamorphic property on a
// hole-free scenario: after every churn delta, the Engine.Apply chain must
// answer exactly like a fresh engine built from the mutated structure's
// raw coordinates — identical exact forests and identical memoized
// distances.
func CheckChurn(sc Scenario, c Churn) error {
	if sc.Holed() {
		return fmt.Errorf("%s: churn requires a hole-free base", sc.Name)
	}
	seed := nameSeed(sc.Name)
	srcs := SourceSets(seed, sc.S)[1]
	e, err := engine.New(sc.S, &engine.Config{Seed: seed})
	if err != nil {
		return err
	}
	ldr, _ := e.Leader()
	protect := append(append([]amoebot.Coord(nil), srcs...), ldr)
	deltas, states, err := c.Sequence(sc.S, protect...)
	if err != nil {
		return err
	}
	incr := e
	for i, d := range deltas {
		incr, err = incr.Apply(d)
		if err != nil {
			return fmt.Errorf("%s: %s step %d: %w", sc.Name, c, i, err)
		}
		cur := states[i+1]
		if incr.Structure().Fingerprint() != cur.Fingerprint() {
			return fmt.Errorf("%s: %s step %d: Apply diverged from the churn sequence", sc.Name, c, i)
		}
		fresh, err := engine.New(amoebot.MustStructure(cur.Coords()), &engine.Config{Seed: seed})
		if err != nil {
			return fmt.Errorf("%s: %s step %d: fresh engine: %w", sc.Name, c, i, err)
		}
		q := engine.Query{Algo: engine.AlgoExact, Sources: srcs, Dests: cur.Coords()}
		a, err := incr.Run(q)
		if err != nil {
			return fmt.Errorf("%s: %s step %d: incremental: %w", sc.Name, c, i, err)
		}
		b, err := fresh.Run(q)
		if err != nil {
			return fmt.Errorf("%s: %s step %d: fresh: %w", sc.Name, c, i, err)
		}
		ab, _ := a.Forest.MarshalText()
		bb, _ := b.Forest.MarshalText()
		if !bytes.Equal(ab, bb) {
			return fmt.Errorf("%s: %s step %d: incremental exact forest differs from fresh", sc.Name, c, i)
		}
		di, err := incr.Distances(srcs)
		if err != nil {
			return err
		}
		df, err := fresh.Distances(srcs)
		if err != nil {
			return err
		}
		for j := range di {
			if di[j] != df[j] {
				return fmt.Errorf("%s: %s step %d: derived distance %d != fresh %d at node %d",
					sc.Name, c, i, di[j], df[j], j)
			}
		}
		// The distributed forest on the incremental engine stays verified.
		fres, err := incr.Run(engine.Query{Algo: engine.AlgoForest, Sources: srcs, Dests: cur.Coords()})
		if err != nil {
			return fmt.Errorf("%s: %s step %d: forest: %w", sc.Name, c, i, err)
		}
		if err := incr.Verify(srcs, cur.Coords(), fres.Forest); err != nil {
			return fmt.Errorf("%s: %s step %d: forest: %w", sc.Name, c, i, err)
		}
	}
	return nil
}

// resolveCoords maps coordinates to node indices.
func resolveCoords(s *amoebot.Structure, cs []amoebot.Coord) ([]int32, error) {
	out := make([]int32, len(cs))
	for i, c := range cs {
		j, ok := s.Index(c)
		if !ok {
			return nil, fmt.Errorf("coordinate %v not in structure", c)
		}
		out[i] = j
	}
	return out, nil
}
