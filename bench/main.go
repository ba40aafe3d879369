// Command bench is the repository's performance benchmark. One run measures
// one named workload: it sets the workload up several times, times a fixed,
// seeded sequence of operations in whole passes until the measured time
// reaches -seconds, checks every answer the program under test gives, and
// prints the metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; any failed check
// makes the exit code non-zero. Without -workload it runs every workload,
// each in its own child process.
//
//	bash bench/run.sh --workload forest-blob --seed 1 --seconds 20 --trace 0
//
// With -trace 1 the run also measures the per-layer metrics: it repeats the
// timed loop with spans and a CPU profile, runs the layer probes, writes
// trace-<workload>.json and cpu-<workload>.pprof to -trace-dir, and prints the
// per-layer metrics as its last line. README.md describes the workloads and
// every metric.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"forest-blob", runForest},
	{"batch-51k", runBatch},
	{"churn-30k", runChurn},
}

// procs is the GOMAXPROCS of every run, fixed rather than read from the
// host: the workloads run on one core, as does the reference kernel their
// times are scaled by (hostref.go).
const procs = 1

// setups is how many times a run repeats its set-up; setup_s is the median.
const setups = 7

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (empty: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured seconds per run, rounded up to whole passes")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory for the spans and CPU profile of a traced run")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	for _, w := range workloads {
		if w.name == *name {
			r := &run{
				workload: w.name,
				seed:     *seed,
				budget:   time.Duration(*seconds) * time.Second,
				traced:   *trace == 1,
				traceDir: *traceDir,
				rec:      newRecorder(w.name),
				layer:    make(map[string]float64),
			}
			os.Exit(r.main(w))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runAll runs every workload in its own child process, so each has its own
// heap, garbage-collector state and peak RSS.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// run is one workload run: its configuration and what it measured.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	traceDir string
	rec      *recorder

	attempted, failed int
	problems          []string

	ref        *refKernel // the host-speed reference
	setupS     []float64  // seconds per set-up, at the reference speed
	latMS      []float64  // per distinct operation, at the reference speed
	wallMS     []float64  // per timed operation, wall time
	refMS      []float64  // reference kernel time before each timed operation
	ops        int        // throughput units done in the timed loop
	measured   time.Duration
	throughput float64 // units per second at the reference speed
	opSeq      int     // index of the next timed operation (span op field)

	simRounds, simBeeps int64 // simulated cost of the warm-up pass

	layer map[string]float64 // per-layer values computed by the workload
}

// main runs the workload and prints its result; it returns the exit code.
func (r *run) main(w workload) int {
	if r.traced {
		if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		r.rec.tracing = true // set-up spans
	}
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.workload, err)
		return 1
	}
	e2e := r.endToEnd()
	r.layer["runtime.peak_rss_mb"] = peakRSS()
	fmt.Printf("%s seed %d: %d attempted, %d failed, %d ops in %.2fs timed, peak RSS %.1f MB\n",
		r.workload, r.seed, r.attempted, r.failed, r.ops, r.measured.Seconds(), r.layer["runtime.peak_rss_mb"])
	fmt.Printf("  wall p50 %.2f ms, reference kernel p50 %.3f ms (%.3f ms at the reference speed)\n",
		median(r.wallMS), median(r.refMS), refNominalMS)
	if n := len(r.latMS); beyond(n, 90) < 10 {
		fmt.Printf("  note: %d distinct operations leave only %d beyond p90\n", n, beyond(n, 90))
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED:", p)
	}
	printValues("end-to-end", endToEnd, e2e)
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed}
	var err error
	if r.traced {
		values := r.rec.layerValues()
		for k, v := range r.layer {
			values[k] = v
		}
		printValues("per-layer", perLayer, values)
		if err = r.rec.writeSpans(r.traceDir); err == nil {
			res.Metrics, err = buildMetrics(perLayer, values, true)
		}
	} else {
		res.Metrics, err = buildMetrics(endToEnd, e2e, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.workload, err)
		return 1
	}
	fmt.Println(res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

func (r *run) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"latency_p50_ms":   quantile(r.latMS, 50),
		"latency_p90_ms":   quantile(r.latMS, 90),
		"throughput_ops_s": r.throughput,
	}
}

// peakRSS is the peak resident set of this process in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printValues(title string, defs []metricDef, values map[string]float64) {
	fmt.Printf("  %s:\n", title)
	for _, d := range defs {
		fmt.Printf("    %-36s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// fail counts one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// timeOp times one operation of the workload worth units of throughput: it
// times the reference kernel, then runs f inside the operation's span o, and
// records both times.
func (r *run) timeOp(op, units int, f func(o open)) {
	var ref time.Duration
	untimed(func() error { ref = r.ref.time(); return nil })
	o := r.rec.start(op, "op", root)
	f(o)
	d := r.rec.stop(o)
	r.refMS = append(r.refMS, ms(ref))
	r.wallMS = append(r.wallMS, ms(d))
	r.ops += units
	r.measured += d
}

// minPasses is the fewest timed passes a run makes, so that every operation's
// latency is a median of at least three.
const minPasses = 3

// refWindow is how many consecutive kernel times, centred on an operation,
// give the host speed its wall time is scaled by.
const refWindow = 5

// atReferenceSpeed turns the wall times of a number of identical passes into
// the latency of each distinct operation at the reference speed, and the
// units of one pass into a throughput. Each wall time is scaled by the median of
// the refWindow kernel times around it, so one odd kernel reading does not
// skew it; then each operation's latency is the median of its scaled times
// over the passes, so a stall of the host during one pass is not taken for
// that operation's cost.
func atReferenceSpeed(wallMS, refMS []float64, passes, units int) (latMS []float64, throughput float64) {
	n := len(wallMS)
	scaled := make([]float64, n)
	for i, w := range wallMS {
		lo, hi := max(0, i-refWindow/2), min(n, i+refWindow/2+1)
		scaled[i] = w * refNominalMS / median(refMS[lo:hi])
	}
	per := n / passes
	latMS = make([]float64, per)
	total := 0.0
	for j := range latMS {
		xs := make([]float64, passes)
		for k := range xs {
			xs[k] = scaled[k*per+j]
		}
		latMS[j] = median(xs)
		total += latMS[j]
	}
	return latMS, float64(units) / float64(passes) / (total / 1e3)
}

// nextOp numbers the timed operations for their spans.
func (r *run) nextOp() int {
	r.opSeq++
	return r.opSeq - 1
}

// sim adds one answer's simulated cost to the sim.rounds / sim.beeps totals,
// which cover pass 0: a fixed operation sequence per seed, so the totals
// repeat exactly across runs and builds unless the model changes.
func (r *run) sim(pass int, rounds, beeps int64) {
	if pass == 0 {
		r.simRounds += rounds
		r.simBeeps += beeps
	}
}

// measure runs the workload's operation sequence in whole passes. Pass 0 is
// a warm-up: its operations are not timed, every answer is checked, and the
// program's caches and heap reach their steady state. Then passes are timed,
// at least minPasses and until the timed operations' wall times add up to the
// budget; every pass runs the same operations in the same order. A traced
// run times that loop twice, untraced and then traced under a CPU profile,
// and then runs the layer probes; the difference between the two loops'
// median latencies is trace_overhead_pct.
func (r *run) measure(pass func(k int) error, probe func() error) error {
	runtime.GC()
	r.rec.tracing = false
	if err := pass(0); err != nil {
		return err
	}
	r.setSim()
	next := 1
	loop := func() error {
		r.wallMS, r.refMS, r.ops, r.measured = nil, nil, 0, 0
		passes := 0
		for ; r.measured < r.budget || passes < minPasses; next++ {
			if err := pass(next); err != nil {
				return err
			}
			passes++
		}
		r.latMS, r.throughput = atReferenceSpeed(r.wallMS, r.refMS, passes, r.ops)
		return nil
	}
	if err := loop(); err != nil || !r.traced {
		return err
	}
	r.layer["bench.ref_ms"] = median(r.refMS)
	r.layer["bench.wall_p50_ms"] = median(r.wallMS)
	untraced := median(r.latMS)
	r.rec.tracing = true
	finish, err := r.profile()
	if err != nil {
		return err
	}
	err = loop()
	if ferr := finish(r.ops); err == nil {
		err = ferr
	}
	if err == nil {
		err = probe()
	}
	if err != nil {
		return err
	}
	r.layer["trace_overhead_pct"] = 100 * (median(r.latMS) - untraced) / untraced
	return nil
}

func (r *run) setSim() {
	r.layer["sim.rounds"] = float64(r.simRounds)
	r.layer["sim.beeps"] = float64(r.simBeeps)
}

// profile starts the CPU profile of a traced loop. The returned function
// stops it, writes cpu-<workload>.pprof and records the CPU shares by module
// and the Go runtime's allocation and GC pause per operation of the loop.
func (r *run) profile() (func(ops int) error, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func(ops int) error {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		pprof.StopCPUProfile()
		if ops > 0 {
			r.layer["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(ops)
			r.layer["runtime.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(ops)
		}
		path := filepath.Join(r.traceDir, fmt.Sprintf("cpu-%s.pprof", r.workload))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write cpu profile: %w", err)
		}
		shares, err := cpuShares(buf.Bytes())
		if err != nil {
			return err
		}
		for m, v := range shares {
			r.layer["cpu."+m] = v
		}
		return nil
	}, nil
}
