// Command spfserve is the network-facing serving tier: an HTTP server
// over the service engine pool with latency-budget batching. Single
// queries arriving concurrently against the same structure are coalesced
// by a per-fingerprint admission queue into one Engine.Batch call under a
// size-or-deadline flush policy, so the wire front end inherits the
// batch economics of the engine (PR 6: ≈0.21× a solo-query loop at
// n ≥ 10⁶) without clients having to batch themselves.
//
//	spfserve -addr :8080 -batch-size 16 -max-wait 2ms -metrics-out reqs.jsonl
//
// Endpoints (all JSON over POST, except GET /v1/stats):
//
//	/v1/query   one query; coalesced through the admission queue
//	/v1/batch   an explicit query batch; handed to Engine.Batch directly
//	/v1/mutate  applies a delta via service.Mutate; answers the successor
//	            fingerprint, which later requests may reference as "fp"
//	/v1/stats   pool counters, admission counters and per-endpoint
//	            latency aggregates (p50/p90/p99, coalescing factor)
//
// Structures are named by a registered scenario ("scenario"), inline
// canonical text ("structure"), or the fingerprint of a structure this
// server has already seen ("fp" — every scenario, parsed structure and
// mutation result is registered). Overload is shed with 429 and a
// Retry-After hint; request bodies above 32 MiB and inline structures of
// more than maxInlineAmoebots amoebots are refused with 413;
// SIGINT/SIGTERM drain: the listener stops, admitted requests flush and
// are answered, then the process exits.
package main

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/scenario"
	"spforest/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		batchSize   = flag.Int("batch-size", 16, "admission queue: flush when this many queries are waiting for one structure")
		maxWait     = flag.Duration("max-wait", 2*time.Millisecond, "admission queue: flush a non-empty queue this long after its oldest query arrived")
		queueDepth  = flag.Int("queue-depth", 256, "admission queue: per-structure bound; overflow is shed with 429")
		maxInFlight = flag.Int("max-inflight", 4096, "global bound on admitted unanswered requests; overflow is shed with 429")
		shards      = flag.Int("shards", 0, "engine pool shards (0: service default)")
		maxEngines  = flag.Int("max-engines", 0, "engine pool: max engines per shard (0: service default)")
		workers     = flag.Int("workers", 0, "engine: batch worker bound (0: GOMAXPROCS)")
		intra       = flag.Int("intra-workers", 1, "engine: intra-query parallelism (serving tiers usually keep 1 and let the batch own the cores)")
		metricsOut  = flag.String("metrics-out", "", "stream per-request JSON timing records to this file")
	)
	flag.Parse()

	var recorder *service.Recorder
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatalf("spfserve: %v", err)
		}
		defer f.Close()
		recorder = service.NewRecorder(f)
	} else {
		recorder = service.NewRecorder(nil)
	}

	svc := service.New(&service.Config{
		Shards:             *shards,
		MaxEnginesPerShard: *maxEngines,
		Engine:             engine.Config{Workers: *workers, IntraWorkers: *intra, AllowHoles: true},
	})
	srv := newServer(svc, service.NewBatcher(svc, &service.BatcherConfig{
		BatchSize:   *batchSize,
		MaxWait:     *maxWait,
		QueueDepth:  *queueDepth,
		MaxInFlight: *maxInFlight,
	}), recorder)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("spfserve: listening on %s (batch-size=%d max-wait=%v)", *addr, *batchSize, *maxWait)

	select {
	case err := <-errc:
		log.Fatalf("spfserve: %v", err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight handlers finish, then
	// flush and answer everything the admission queue holds.
	log.Printf("spfserve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("spfserve: shutdown: %v", err)
	}
	srv.batcher.Close()
	log.Printf("spfserve: drained (%d requests served)", srv.rec.Records())
}

// maxBodyBytes bounds a request body. The largest shipped structure, the
// radius-577 hexagon (about a million amoebots), is 8,519,916 bytes of
// canonical text, so inline structures of that size fit with room to
// spare; a larger body is answered with 413 as soon as the limit is read.
const maxBodyBytes = 32 << 20

// maxInlineAmoebots bounds the amoebot count of an inline structure: a body
// within maxBodyBytes can still name about 8M amoebots ("0 0" lines). The
// bound admits the radius-577 hexagon's 1,000,519 amoebots with room to
// spare; a larger inline structure is answered with 413 before parsing.
const maxInlineAmoebots = 1 << 21

// Server timeouts: a client has readHeaderTimeout to send its headers and
// readTimeout for the whole request, a maximal body included; idle
// keep-alive connections close after idleTimeout. There is deliberately no
// write timeout: a million-amoebot solve can take seconds, and the
// response is written only after it.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// server carries the serving state shared by the handlers.
type server struct {
	svc     *service.Service
	batcher *service.Batcher
	rec     *service.Recorder
	started time.Time

	// structures is the wire-side structure registry: every structure the
	// server has resolved (scenario, inline text, mutation result), keyed
	// by fingerprint so clients can reference mutation successors without
	// re-sending coordinates. A FIFO bound keeps a mutating workload from
	// growing it without limit.
	mu         sync.Mutex
	structures map[string]*list.Element
	order      *list.List // front = oldest; values are *regEntry
}

func newServer(svc *service.Service, batcher *service.Batcher, rec *service.Recorder) *server {
	return &server{
		svc:        svc,
		batcher:    batcher,
		rec:        rec,
		structures: make(map[string]*list.Element),
		order:      list.New(),
		started:    time.Now(),
	}
}

// routes returns the handler serving the four endpoints.
func (sv *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", sv.handleQuery)
	mux.HandleFunc("POST /v1/batch", sv.handleBatch)
	mux.HandleFunc("POST /v1/mutate", sv.handleMutate)
	mux.HandleFunc("GET /v1/stats", sv.handleStats)
	return mux
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// On failure it returns the status to answer with: 413 for an oversized
// body, 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

type regEntry struct {
	fp string
	s  *amoebot.Structure
}

// maxRegisteredStructures bounds the wire-side structure registry.
const maxRegisteredStructures = 4096

// register remembers s by fingerprint for later "fp" references.
func (sv *server) register(s *amoebot.Structure) string {
	fp := s.Fingerprint()
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, ok := sv.structures[fp]; ok {
		return fp
	}
	for sv.order.Len() >= maxRegisteredStructures {
		oldest := sv.order.Remove(sv.order.Front()).(*regEntry)
		delete(sv.structures, oldest.fp)
	}
	sv.structures[fp] = sv.order.PushBack(&regEntry{fp: fp, s: s})
	return fp
}

func (sv *server) byFingerprint(fp string) (*amoebot.Structure, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	el, ok := sv.structures[fp]
	if !ok {
		return nil, false
	}
	return el.Value.(*regEntry).s, true
}

// structureRef is the common structure-naming part of request bodies.
type structureRef struct {
	// Scenario names a registered scenario instance ("family/variant").
	Scenario string `json:"scenario,omitempty"`
	// Structure is inline canonical text ("x z" per line).
	Structure string `json:"structure,omitempty"`
	// FP references a structure this server has already seen.
	FP string `json:"fp,omitempty"`
}

// resolve maps a structure reference to a registered structure. On
// failure it returns the status to answer with: 413 for an inline
// structure above maxInlineAmoebots, 400 otherwise.
func (sv *server) resolve(ref structureRef) (*amoebot.Structure, int, error) {
	switch {
	case ref.FP != "":
		s, ok := sv.byFingerprint(ref.FP)
		if !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("unknown fingerprint %q (not seen by this server)", ref.FP)
		}
		return s, 0, nil
	case ref.Scenario != "":
		sc, ok := scenario.ByName(ref.Scenario)
		if !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("unknown scenario %q", ref.Scenario)
		}
		sv.register(sc.S)
		return sc.S, 0, nil
	case ref.Structure != "":
		if n := inlineAmoebots(ref.Structure); n > maxInlineAmoebots {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("inline structure has %d amoebots, more than %d", n, maxInlineAmoebots)
		}
		s, err := amoebot.ParseStructure([]byte(ref.Structure))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		sv.register(s)
		return s, 0, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("no structure given (one of scenario, structure, fp)")
	}
}

// inlineAmoebots counts the coordinate lines of inline canonical text —
// the lines amoebot.ParseStructure turns into amoebots — without parsing
// them.
func inlineAmoebots(text string) int {
	n := 0
	for line := range strings.Lines(text) {
		if t := strings.TrimSpace(line); t != "" && !strings.HasPrefix(t, "#") {
			n++
		}
	}
	return n
}

// wireQuery is one query on the wire.
type wireQuery struct {
	Algo    string   `json:"algo,omitempty"`
	Sources [][2]int `json:"sources"`
	Dests   [][2]int `json:"dests,omitempty"`
	Tag     string   `json:"tag,omitempty"`
}

func (wq wireQuery) query() engine.Query {
	return engine.Query{Algo: wq.Algo, Sources: coords(wq.Sources), Dests: coords(wq.Dests), Tag: wq.Tag}
}

func coords(ps [][2]int) []amoebot.Coord {
	if len(ps) == 0 {
		return nil
	}
	out := make([]amoebot.Coord, len(ps))
	for i, p := range ps {
		out[i] = amoebot.XZ(p[0], p[1])
	}
	return out
}

// wireResult is one answered query on the wire.
type wireResult struct {
	Tag    string           `json:"tag,omitempty"`
	Err    string           `json:"err,omitempty"`
	Forest string           `json:"forest,omitempty"`
	Rounds int64            `json:"rounds"`
	Beeps  int64            `json:"beeps"`
	Phases map[string]int64 `json:"phases,omitempty"`
	// Timing is the server-side per-request record (echoed so closed-loop
	// clients can split latency without scraping the metrics stream).
	Timing *service.RequestRecord `json:"timing,omitempty"`
}

func resultToWire(tag string, res *engine.Result) wireResult {
	text, _ := res.Forest.MarshalText()
	return wireResult{
		Tag:    tag,
		Forest: string(text),
		Rounds: res.Stats.Rounds,
		Beeps:  res.Stats.Beeps,
		Phases: res.Stats.Phases,
	}
}

type queryRequest struct {
	structureRef
	wireQuery
}

// handleQuery answers one query through the admission queue.
func (sv *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := service.RequestRecord{Endpoint: "query"}
	var req queryRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	rec.Algo = req.Algo
	s, status, err := sv.resolve(req.structureRef)
	if err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	rec.Fingerprint = s.Fingerprint()

	res, timing, err := sv.batcher.Submit(s, req.query())
	rec.QueueNS = timing.Queue.Nanoseconds()
	rec.BuildNS = timing.Build.Nanoseconds()
	rec.SolveNS = timing.Solve.Nanoseconds()
	rec.BatchSize = timing.BatchSize
	switch {
	case err == service.ErrOverloaded || err == service.ErrDraining:
		w.Header().Set("Retry-After", retryAfterSeconds(sv.batcher.RetryAfter()))
		sv.fail(w, &rec, start, http.StatusTooManyRequests, err)
		return
	case err != nil:
		sv.fail(w, &rec, start, http.StatusUnprocessableEntity, err)
		return
	}
	rec.Rounds = res.Stats.Rounds
	rec.Beeps = res.Stats.Beeps
	out := resultToWire(req.Tag, res)
	out.Timing = &rec
	sv.answer(w, &rec, start, http.StatusOK, out)
}

type batchRequest struct {
	structureRef
	Queries []wireQuery `json:"queries"`
}

type batchResponse struct {
	Results []wireResult           `json:"results"`
	Deduped int                    `json:"deduped"`
	Groups  int                    `json:"groups"`
	Timing  *service.RequestRecord `json:"timing,omitempty"`
}

// handleBatch answers an explicit client-side batch with one
// Engine.Batch call (no admission queue: the client already coalesced).
func (sv *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := service.RequestRecord{Endpoint: "batch"}
	var req batchRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	if len(req.Queries) == 0 {
		sv.fail(w, &rec, start, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	s, status, err := sv.resolve(req.structureRef)
	if err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	rec.Fingerprint = s.Fingerprint()
	qs := make([]engine.Query, len(req.Queries))
	for i, wq := range req.Queries {
		qs[i] = wq.query()
	}
	solveStart := time.Now()
	res, build, err := sv.svc.BatchTimed(s, qs)
	rec.BuildNS = build.Nanoseconds()
	rec.SolveNS = time.Since(solveStart).Nanoseconds() - rec.BuildNS
	rec.BatchSize = len(qs)
	if err != nil {
		sv.fail(w, &rec, start, http.StatusUnprocessableEntity, err)
		return
	}
	out := batchResponse{Results: make([]wireResult, len(res.Results)), Deduped: res.Stats.Deduped, Groups: res.Stats.Groups}
	for i, qr := range res.Results {
		if qr.Err != nil {
			out.Results[i] = wireResult{Tag: qr.Query.Tag, Err: qr.Err.Error()}
			continue
		}
		out.Results[i] = resultToWire(qr.Query.Tag, qr.Result)
	}
	rec.Rounds = res.Stats.Rounds
	rec.Beeps = res.Stats.Beeps
	out.Timing = &rec
	sv.answer(w, &rec, start, http.StatusOK, out)
}

type mutateRequest struct {
	structureRef
	Add    [][2]int `json:"add,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

type mutateResponse struct {
	FP     string                 `json:"fp"`
	N      int                    `json:"n"`
	Timing *service.RequestRecord `json:"timing,omitempty"`
}

// handleMutate applies a delta through service.Mutate (deriving the
// successor engine incrementally when the source engine is pooled) and
// registers the successor for later "fp" references.
func (sv *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := service.RequestRecord{Endpoint: "mutate"}
	var req mutateRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	s, status, err := sv.resolve(req.structureRef)
	if err != nil {
		sv.fail(w, &rec, start, status, err)
		return
	}
	rec.Fingerprint = s.Fingerprint()
	solveStart := time.Now()
	ns, err := sv.svc.Mutate(s, amoebot.Delta{Add: coords(req.Add), Remove: coords(req.Remove)})
	rec.SolveNS = time.Since(solveStart).Nanoseconds()
	if err != nil {
		sv.fail(w, &rec, start, http.StatusUnprocessableEntity, err)
		return
	}
	out := mutateResponse{FP: sv.register(ns), N: ns.N()}
	out.Timing = &rec
	sv.answer(w, &rec, start, http.StatusOK, out)
}

// statsResponse is the /v1/stats document.
type statsResponse struct {
	UptimeNS  int64                            `json:"uptime_ns"`
	Pool      service.Stats                    `json:"pool"`
	Admission service.BatcherStats             `json:"admission"`
	Endpoints map[string]service.EndpointStats `json:"endpoints"`
	Requests  int64                            `json:"requests"`
}

func (sv *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsResponse{
		UptimeNS:  time.Since(sv.started).Nanoseconds(),
		Pool:      sv.svc.Stats(),
		Admission: sv.batcher.Stats(),
		Endpoints: sv.rec.Snapshot(),
		Requests:  sv.rec.Records(),
	})
}

// answer encodes the response, closing the record with the encode phase.
func (sv *server) answer(w http.ResponseWriter, rec *service.RequestRecord, start time.Time, status int, body any) {
	encStart := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	rec.EncodeNS = time.Since(encStart).Nanoseconds()
	rec.Status = status
	rec.TotalNS = time.Since(start).Nanoseconds()
	sv.rec.Record(*rec)
}

// fail answers an error, recording it under the same flat record shape.
func (sv *server) fail(w http.ResponseWriter, rec *service.RequestRecord, start time.Time, status int, err error) {
	rec.Err = err.Error()
	sv.answer(w, rec, start, status, map[string]string{"err": err.Error()})
}

// retryAfterSeconds renders a Retry-After hint, never below one second
// (the header's resolution).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
