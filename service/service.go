// Package service turns the per-structure query engine into a
// traffic-serving system: a sharded pool of engines keyed by structure
// fingerprint, safe for concurrent use by many goroutines.
//
// Where engine.Engine amortizes preprocessing over the queries against one
// structure, Service amortizes engines over the structures of a whole
// workload: queries against a structure the pool has seen reuse its engine
// (and everything the engine memoizes — validation, region, leader, exact
// distances), and mutations derive the successor engine incrementally with
// Engine.Apply instead of rebuilding: it carries the leader and the portal
// decompositions, and starts an empty distance memo. Shards bound lock contention and a
// per-shard LRU bounds memory; hit, miss and eviction counters expose the
// pool's behavior.
//
//	svc := service.New(nil)
//	res, err := svc.Query(s, engine.Query{Sources: srcs, Dests: dests})
//	s2, err := svc.Mutate(s, amoebot.Delta{Add: grown, Remove: shed})
//	res2, err := svc.Query(s2, ...) // pooled: no re-validation, no re-election
package service

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"spforest/amoebot"
	"spforest/engine"
)

// entry is one pooled engine. Construction happens outside the shard lock
// behind the sync.Once, so a slow engine build (validation, O(n) setup)
// never blocks the shard. ready flips once the build finished; entries
// that are still building are never evicted (evicting one would orphan the
// in-flight build: it completes into an entry no lookup can find, wasting
// the O(n) setup and skewing the counters).
type entry struct {
	fp    string
	elem  *list.Element
	once  sync.Once
	eng   *engine.Engine
	err   error
	ready atomic.Bool
}

// complete runs the entry's build exactly once (losers of the race wait
// and observe the winner's result).
func (en *entry) complete(build func() (*engine.Engine, error)) {
	en.once.Do(func() {
		en.eng, en.err = build()
		en.ready.Store(true)
	})
}

// Config tunes a Service.
type Config struct {
	// Shards is the number of independently locked pool shards; structures
	// hash to shards by fingerprint. Zero or negative means 8.
	Shards int
	// MaxEnginesPerShard bounds each shard's engine count; the least
	// recently used engine is evicted when a shard overflows. Zero or
	// negative means 32.
	MaxEnginesPerShard int
	// Engine is the configuration handed to every engine the pool builds.
	// Engine.Leader is almost always nil here: a fixed leader coordinate
	// rarely exists in every structure of a workload. Engine.IntraWorkers
	// passes through untouched and tunes the per-query parallelism of every
	// pooled engine — a latency-focused deployment raises it, a
	// throughput-focused one keeps it at 1 and lets the shard pool and
	// Batch own every core; results are bit-identical either way.
	Engine engine.Config
}

// Service is a concurrent multi-structure query service. Construct with
// New; the zero value is unusable. All methods are safe for concurrent
// use.
type Service struct {
	cfg    Config
	shards []*shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
}

// New builds an empty service. A nil config uses the defaults.
func New(cfg *Config) *Service {
	sv := &Service{}
	if cfg != nil {
		sv.cfg = *cfg
	}
	if sv.cfg.Shards <= 0 {
		sv.cfg.Shards = 8
	}
	if sv.cfg.MaxEnginesPerShard <= 0 {
		sv.cfg.MaxEnginesPerShard = 32
	}
	sv.shards = make([]*shard, sv.cfg.Shards)
	for i := range sv.shards {
		sv.shards[i] = &shard{entries: make(map[string]*entry), lru: list.New()}
	}
	return sv
}

// FNV-1a constants (hash/fnv), inlined so shardFor stays alloc-free: the
// stdlib hasher allocates (the hash.Hash32 box plus the []byte conversion
// of the fingerprint) on every call, and shardFor sits on the per-request
// hot path the serving tier multiplies by QPS.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func (sv *Service) shardFor(fp string) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(fp); i++ {
		h ^= uint32(fp[i])
		h *= fnvPrime32
	}
	return sv.shards[h%uint32(len(sv.shards))]
}

// lookup returns the pooled entry for fp, optionally creating a
// placeholder, and maintains the LRU order. The caller completes the
// entry's once outside the lock. counted decides whether the hit/miss
// counters see this lookup (engine registration by Mutate is bookkeeping,
// not a cache query).
func (sv *Service) lookup(fp string, create, counted bool) *entry {
	sh := sv.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if en, ok := sh.entries[fp]; ok {
		if en.ready.Load() && en.err != nil {
			// A failed build must never be served from the pool: it would
			// occupy an LRU slot forever and hand every later caller the
			// cached error — counted as a hit. Drop it and fall through to
			// the create path so this lookup (a miss) retries the build.
			sh.lru.Remove(en.elem)
			delete(sh.entries, en.fp)
		} else {
			sh.lru.MoveToFront(en.elem)
			if counted {
				sv.hits.Add(1)
			}
			return en
		}
	}
	if !create {
		if counted {
			sv.misses.Add(1)
		}
		return nil
	}
	if counted {
		sv.misses.Add(1)
	}
	sv.evictLocked(sh)
	en := &entry{fp: fp}
	en.elem = sh.lru.PushFront(en)
	sh.entries[fp] = en
	return en
}

// evictLocked drops least-recently-used *ready* entries until the shard is
// below its bound, skipping entries whose builds are still in flight. When
// every entry is in flight the shard temporarily overflows instead of
// orphaning a build; the next lookup retries the eviction.
func (sv *Service) evictLocked(sh *shard) {
	for sh.lru.Len() >= sv.cfg.MaxEnginesPerShard {
		evicted := false
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			en := el.Value.(*entry)
			if !en.ready.Load() {
				continue // in-flight build: never orphan it
			}
			sh.lru.Remove(el)
			delete(sh.entries, en.fp)
			sv.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// insert pools a ready-made engine (built by Mutate). An entry racing
// under the same fingerprint is merged with, not clobbered: whether its
// build already finished or is still in flight, the existing entry wins
// and the ready-made engine is simply not pooled — the caller still holds
// and returns it, and Mutate never blocks on an unrelated build. It does
// not touch the hit/miss counters.
func (sv *Service) insert(eng *engine.Engine) {
	fp := eng.Structure().Fingerprint()
	sh := sv.shardFor(fp)
	sh.mu.Lock()
	if en, exists := sh.entries[fp]; exists {
		sh.lru.MoveToFront(en.elem)
		sh.mu.Unlock()
		return
	}
	sv.evictLocked(sh)
	en := &entry{fp: fp}
	en.elem = sh.lru.PushFront(en)
	sh.entries[fp] = en
	sh.mu.Unlock()
	en.complete(func() (*engine.Engine, error) { return eng, nil })
}

// drop removes the entry from its shard if it is still the pooled entry
// for its fingerprint (a fresh entry racing under the same fingerprint is
// left alone).
func (sv *Service) drop(en *entry) {
	sh := sv.shardFor(en.fp)
	sh.mu.Lock()
	if cur, ok := sh.entries[en.fp]; ok && cur == en {
		sh.lru.Remove(en.elem)
		delete(sh.entries, en.fp)
	}
	sh.mu.Unlock()
}

// engineFor returns the pooled engine for s, building and pooling it on
// the first encounter of s's fingerprint. Errored builds are dropped from
// the pool as soon as complete observes them, so a later request for the
// same fingerprint retries the build instead of replaying the cached
// error.
func (sv *Service) engineFor(s *amoebot.Structure) (*engine.Engine, error) {
	en := sv.lookup(s.Fingerprint(), true, true)
	en.complete(func() (*engine.Engine, error) { return engine.New(s, &sv.cfg.Engine) })
	if en.err != nil {
		sv.drop(en)
	}
	return en.eng, en.err
}

// Leader returns the leader of s's pooled engine and the simulated cost
// of electing it, electing (and pooling the engine) on first need — the
// pool-level analogue of Engine.Leader. Calling it before a churn loop
// both pre-pays the election and names the amoebot to spare from
// removals so the whole chain keeps its leader.
func (sv *Service) Leader(s *amoebot.Structure) (amoebot.Coord, engine.Stats, error) {
	eng, err := sv.engineFor(s)
	if err != nil {
		return amoebot.Coord{}, engine.Stats{}, err
	}
	ldr, stats := eng.Leader()
	return ldr, stats, nil
}

// Query answers one query against s through the pooled engine.
func (sv *Service) Query(s *amoebot.Structure, q engine.Query) (*engine.Result, error) {
	eng, err := sv.engineFor(s)
	if err != nil {
		return nil, err
	}
	return eng.Run(q)
}

// Batch answers a query batch against s through the pooled engine (see
// Engine.Batch for concurrency and result-ordering semantics).
func (sv *Service) Batch(s *amoebot.Structure, qs []engine.Query) (*engine.BatchResult, error) {
	res, _, err := sv.BatchTimed(s, qs)
	return res, err
}

// BatchTimed is Batch plus the wall time this call spent obtaining the
// engine — the build on a pool miss, essentially zero on a hit, and the
// wait for the in-flight build when racing another first encounter. The
// serving tier's per-request records split queue-wait, engine-build and
// solve phases with it.
func (sv *Service) BatchTimed(s *amoebot.Structure, qs []engine.Query) (*engine.BatchResult, time.Duration, error) {
	start := time.Now()
	eng, err := sv.engineFor(s)
	build := time.Since(start)
	if err != nil {
		return nil, build, err
	}
	return eng.Batch(qs), build, nil
}

// Mutate applies the delta to s and returns the mutated structure. When
// the pool holds an engine for s, the successor engine is derived
// incrementally with Engine.Apply — carrying the surviving leader and the
// patched portal decompositions — and pooled under the new fingerprint, so
// the next Query on the result pays no preprocessing. Without a pooled engine
// the delta is applied to the structure alone (still incrementally
// validated) and an engine is built on first query. The engine for s
// itself stays pooled; interleaved queries against old and new shapes both
// hit.
func (sv *Service) Mutate(s *amoebot.Structure, d amoebot.Delta) (*amoebot.Structure, error) {
	if d.IsEmpty() {
		return s, nil // nothing to apply: no engine build, no counter traffic
	}
	if en := sv.lookup(s.Fingerprint(), false, true); en != nil {
		en.complete(func() (*engine.Engine, error) { return engine.New(s, &sv.cfg.Engine) })
		if en.err != nil {
			sv.drop(en) // see engineFor: never pool a failed build
		}
		if en.err == nil {
			derived, err := en.eng.Apply(d)
			if err != nil {
				return nil, err
			}
			if derived != en.eng {
				sv.insert(derived)
			}
			return derived.Structure(), nil
		}
	}
	return s.Apply(d)
}

// Len returns the number of pooled engines (including entries still being
// built).
func (sv *Service) Len() int {
	n := 0
	for _, sh := range sv.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Engines is the number of pooled engines.
	Engines int
	// Hits counts lookups that found a pooled engine; Misses counts
	// lookups that found none (Query and Batch then build one; Mutate
	// falls back to mutating the structure alone).
	Hits, Misses int64
	// Evictions counts engines dropped by the per-shard LRU bound.
	Evictions int64
}

// Stats returns a snapshot of the pool counters.
func (sv *Service) Stats() Stats {
	return Stats{
		Engines:   sv.Len(),
		Hits:      sv.hits.Load(),
		Misses:    sv.misses.Load(),
		Evictions: sv.evictions.Load(),
	}
}
