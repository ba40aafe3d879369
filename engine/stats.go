package engine

import (
	"fmt"
	"sort"
	"strings"

	"spforest/amoebot"
	"spforest/internal/sim"
)

// Stats summarizes the simulated distributed execution of one query.
type Stats struct {
	// Rounds is the number of synchronous rounds (the paper's complexity
	// measure).
	Rounds int64
	// Beeps is the total number of beep signals sent (a work measure).
	Beeps int64
	// Phases attributes rounds to named algorithm phases ("preprocess",
	// "spt", "forest", ...).
	Phases map[string]int64
	// WavesPacked counts the bfs waves this query ran as lanes of a shared
	// MS-BFS sweep (DESIGN.md §10): 1 for a bfs query a Batch answered as a
	// lane, 0 otherwise. Only bfs lanes are counted. Every other query,
	// forest and sequential ones included, reports 0: its PASC executions
	// are evaluated in closed form and run no lanes.
	// Host-side execution telemetry only: it never feeds Rounds or Beeps.
	WavesPacked int64
	// LanePasses counts the layers of the shared MS-BFS sweep the query's
	// bfs lane was live in (0 without a lane).
	LanePasses int64
}

func statsOf(c *sim.Clock) Stats {
	s := c.Snapshot()
	return Stats{Rounds: s.Rounds, Beeps: s.Beeps, Phases: s.Phases}
}

// String renders the totals followed by the per-phase round breakdown in
// lexicographic phase order, e.g.
//
//	rounds=180 beeps=6402 forest=96 preprocess=84
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d beeps=%d", s.Rounds, s.Beeps)
	names := make([]string, 0, len(s.Phases))
	for k := range s.Phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, s.Phases[k])
	}
	if s.WavesPacked > 0 {
		fmt.Fprintf(&b, " waves=%d lane_passes=%d", s.WavesPacked, s.LanePasses)
	}
	return b.String()
}

// Result is the outcome of one algorithm execution.
type Result struct {
	// Forest is the computed (S,D)-shortest path forest.
	Forest *amoebot.Forest
	// Stats is the simulated cost of the distributed execution.
	Stats Stats
}
