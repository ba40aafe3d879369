package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one traced interval: a timed operation, or one call the benchmark
// makes into a layer. Times are nanoseconds since the run started.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"` // index of the timed operation; -1 outside them
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span; -1 for none
}

// recorder brackets layer calls. With tracing on it keeps every span in
// memory and collects per-layer samples; with tracing off a bracket costs two
// clock reads.
type recorder struct {
	tracing  bool
	workload string
	t0       time.Time
	spans    []span
	samples  map[string][]float64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now(), samples: make(map[string][]float64)}
}

// open is a started bracket.
type open struct {
	idx   int
	name  string
	start time.Time
}

// start opens a bracket around a call named after its layer ("engine.run").
func (r *recorder) start(op int, name string, parent open) open {
	o := open{idx: -1, name: name, start: time.Now()}
	if r.tracing {
		o.idx = len(r.spans)
		r.spans = append(r.spans, span{Workload: r.workload, Op: op, Name: name,
			StartNS: o.start.Sub(r.t0).Nanoseconds(), Parent: parent.idx})
	}
	return o
}

// root is the parent of top-level brackets.
var root = open{idx: -1}

// stop closes a bracket and returns its duration. Traced, the duration is
// also a sample of the per-layer metric <name>_ms when one is declared.
func (r *recorder) stop(o open) time.Duration {
	end := time.Now()
	d := end.Sub(o.start)
	if r.tracing && o.idx >= 0 {
		r.spans[o.idx].EndNS = end.Sub(r.t0).Nanoseconds()
		if layerDeclared[o.name+"_ms"] {
			r.add(o.name+"_ms", ms(d))
		}
	}
	return d
}

// time runs f inside a bracket.
func (r *recorder) time(op int, name string, parent open, f func()) time.Duration {
	o := r.start(op, name, parent)
	f()
	return r.stop(o)
}

// add records a per-layer sample (traced runs only).
func (r *recorder) add(name string, v float64) {
	if r.tracing {
		r.samples[name] = append(r.samples[name], v)
	}
}

// layerValues reduces every metric's samples to their median.
func (r *recorder) layerValues() map[string]float64 {
	out := make(map[string]float64, len(r.samples))
	for name, xs := range r.samples {
		out[name] = median(xs)
	}
	return out
}

// writeSpans writes the spans as <dir>/trace-<workload>.json.
func (r *recorder) writeSpans(dir string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", r.workload))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// untimed runs work the benchmark does between timed operations — checking
// answers, generating inputs — under the pprof label bench=untimed, so the CPU
// shares of a traced run leave it out.
func untimed(f func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels(untimedLabel, "untimed"), func(context.Context) { err = f() })
	return err
}

const untimedLabel = "bench"

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
