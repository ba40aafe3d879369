package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {99, 90, 9}, {130, 90, 13}, {1200, 99, 12}, {1000, 99, 10}, {999, 99, 9}, {20, 50, 10}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestAtReferenceSpeed: wall times are scaled by the kernel times around
// them, an odd kernel reading does not skew its operation, and an
// operation's latency is its median over the passes, so a stall in one pass
// does not move it.
func TestAtReferenceSpeed(t *testing.T) {
	// Three passes of two operations on a host at half the reference speed;
	// the kernel misreads once and operation 1 stalls in the last pass.
	slow := 2 * refNominalMS
	wall := []float64{100, 200, 100, 200, 100, 900}
	ref := []float64{slow, slow, 100 * slow, slow, slow, slow}
	lat, throughput := atReferenceSpeed(wall, ref, 3, 6)
	if len(lat) != 2 || lat[0] != 50 || lat[1] != 100 {
		t.Errorf("latencies %v, want [50 100]", lat)
	}
	if want := 2 / 0.150; math.Abs(throughput-want) > 1e-9 {
		t.Errorf("throughput %v, want %v (two units per 150 ms pass)", throughput, want)
	}
}

func TestBuildMetricsIsExactlyTheDeclaredSet(t *testing.T) {
	r := &run{setupS: []float64{0.5}, latMS: []float64{1, 2, 3}, throughput: 3}
	m, err := buildMetrics(endToEnd, r.endToEnd(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(m), len(endToEnd))
	}
	if _, err := buildMetrics(endToEnd, map[string]float64{"setup_s": 1}, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := buildMetrics(perLayer, map[string]float64{"engine.bogus_ms": 1}, true); err == nil {
		t.Error("an undeclared per-layer metric was accepted")
	}
	m, err = buildMetrics(perLayer, map[string]float64{"engine.run_ms": 2}, true)
	if err != nil || len(m) != len(perLayer) || m["engine.run_ms"].Value != 2 {
		t.Errorf("per-layer metrics not filled to the declared set: %v", err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestDeclaredMetricsMatchBenchmarkJSON: every workload and metric name the
// command prints is declared in BENCHMARK.json, with the same unit and
// direction, and is a well-formed name.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			checkName(code[i].Name)
			if !unitRE.MatchString(code[i].Unit) {
				t.Errorf("%s: unit %q of %s", kind, code[i].Unit, code[i].Name)
			}
			if code[i].Better != "lower" && code[i].Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, code[i].Name, code[i].Better)
			}
			if bounded && (code[i].Bound <= 0 || code[i].Bound > 0.25) {
				t.Errorf("%s: bound %v of %s outside (0, 0.25]", kind, code[i].Bound, code[i].Name)
			}
			if file[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, file[i], code[i])
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s declared as %+v", m)
		}
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if endToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must lead the end-to-end list")
	}
}
