package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric. The same lists are in BENCHMARK.json;
// TestDeclaredMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (see README.md for what "operation" means per workload);
// times are at the reference speed (hostref.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// repository module they measure. A workload that does not exercise a layer
// reports it as 0.
var perLayer = []metricDef{
	// Set-up: structure, engine, election (Theorem 2), warm.
	{"amoebot.build_ms", "ms", "lower", 0},
	{"engine.new_ms", "ms", "lower", 0},
	{"leader.elect_ms", "ms", "lower", 0},
	{"leader.elect_rounds", "count", "lower", 0},
	{"engine.warm_ms", "ms", "lower", 0},
	// Layer probes on the workload's structure.
	{"portal.compute_ms", "ms", "lower", 0},
	{"portal.view_ms", "ms", "lower", 0},
	{"core.split_ms", "ms", "lower", 0},
	{"core.base_regions", "count", "lower", 0},
	{"portal.rootprune_ms", "ms", "lower", 0},
	{"portal.rootprune_rounds", "count", "lower", 0},
	{"portal.decompose_ms", "ms", "lower", 0},
	{"portal.merge_levels", "count", "lower", 0},
	{"core.spt_ms", "ms", "lower", 0},
	{"core.spt_rounds", "count", "lower", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.merge_rounds", "count", "lower", 0},
	{"pasc.tree_ms", "ms", "lower", 0},
	{"pasc.iterations", "count", "lower", 0},
	{"baseline.bfs_ms", "ms", "lower", 0},
	{"baseline.msbfs_ms", "ms", "lower", 0},
	{"baseline.exact_ms", "ms", "lower", 0},
	{"amoebot.apply_ms", "ms", "lower", 0},
	{"amoebot.delta_cells", "count", "lower", 0},
	{"engine.spt_solo_ms", "ms", "lower", 0},
	// Spans and counters of the workload's own operations.
	{"engine.run_ms", "ms", "lower", 0},
	{"engine.batch_ms", "ms", "lower", 0},
	{"engine.apply_ms", "ms", "lower", 0},
	{"engine.spt_group_ms", "ms", "lower", 0},
	{"engine.bfs_group_ms", "ms", "lower", 0},
	{"engine.dup_fill_ms", "ms", "lower", 0},
	{"engine.dedup_ratio", "ratio", "higher", 0},
	{"engine.groups", "count", "higher", 0},
	{"engine.share_gain", "ratio", "higher", 0},
	{"engine.waves_per_pass", "ratio", "higher", 0},
	{"engine.bfs_waves_per_pass", "ratio", "higher", 0},
	{"engine.patch_ratio", "ratio", "higher", 0},
	{"sim.rounds", "count", "lower", 0},
	{"sim.beeps", "count", "lower", 0},
	{"sim.forest_rounds", "count", "lower", 0},
	// Go runtime, CPU profile shares by module, and the tracing overhead.
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"cpu.amoebot", "share", "lower", 0},
	{"cpu.engine", "share", "lower", 0},
	{"cpu.portal", "share", "lower", 0},
	{"cpu.ett", "share", "lower", 0},
	{"cpu.core", "share", "lower", 0},
	{"cpu.pasc", "share", "lower", 0},
	{"cpu.wave", "share", "lower", 0},
	{"cpu.baseline", "share", "lower", 0},
	{"cpu.par", "share", "lower", 0},
	{"cpu.dense", "share", "lower", 0},
	{"cpu.runtime_gc", "share", "lower", 0},
	{"cpu.other", "share", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	// The host-speed reference (hostref.go): the kernel's median time, and
	// the median operation's unscaled wall time.
	{"bench.ref_ms", "ms", "lower", 0},
	{"bench.wall_p50_ms", "ms", "lower", 0},
}

// layerDeclared holds the names of perLayer.
var layerDeclared = map[string]bool{}

func init() {
	for _, m := range perLayer {
		layerDeclared[m.Name] = true
	}
}

// beyond is the number of samples above the nearest-rank p-th percentile of
// n samples. A percentile is worth reporting when at least ten lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// quantile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the samples at or below it (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := min(max(int(math.Ceil(p/100*float64(len(sorted)))), 1), len(sorted))
	return sorted[idx-1]
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMetrics maps values onto the declared metric list: every declared
// metric must be present and nothing else may be, so the printed set is
// exactly the declared set.
func buildMetrics(defs []metricDef, values map[string]float64, fillZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	var missing []string
	for _, d := range defs {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok && !fillZero {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	return string(b)
}
