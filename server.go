package doctagger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/serving"
)

// ServerConfig tunes the concurrent serving front-end. The zero value
// hands each batch to the first idle shard, caps batches at 32 documents,
// bounds the queue at 8*MaxBatch, and disables the result cache.
type ServerConfig struct {
	// MaxBatch caps a batch; default 32. A batch leaves as soon as a shard
	// is idle, so it holds more than one request only when requests
	// arrived while every shard was busy.
	MaxBatch int
	// Deprecated: MaxDelay is ignored: a batch never waits on a timer, it
	// leaves for the first idle shard.
	MaxDelay time.Duration
	// MaxQueue bounds the submission queue — backpressure instead of
	// unbounded memory; default 8*MaxBatch.
	MaxQueue int
	// FailFast rejects submissions with ErrOverloaded when the queue is
	// full instead of blocking callers.
	FailFast bool
	// CacheSize bounds the request-level result cache; 0 disables it.
	// Repeated queries for identical text are answered from a sharded LRU
	// without re-entering the swarm — sound because queries never feed
	// back into the models. The cache flushes whenever SwapEngines or
	// Refresh installs a new generation, so a cached answer never
	// outlives the models that produced it.
	CacheSize int
}

// Engine is the batch classification back-end a Server shards over: one
// tag list per input text in input order; rows the engine cannot answer
// are nil, and the returned error wraps the underlying cause of the first
// failed row. Engines need not be safe for concurrent use — the Server
// drives each shard engine on exactly one goroutine. A *Tagger is an
// Engine; so is any other implementation (for example an ensemble over
// gossiped model sets), which is how a distributed cluster installs model
// generations that did not come from a local Tagger.
//
// An engine that also has a Stats() NetworkStats method (a *Tagger does)
// reports the traffic of a swarm behind it; the Server aggregates that
// traffic into ServerStats.Network. Engines without one count zero.
type Engine interface {
	AutoTagBatch(texts []string) ([][]string, error)
}

// Serving errors, re-exported so callers need not import internal
// packages.
var (
	// ErrServerClosed is returned by Server.Tag after Close began.
	ErrServerClosed = serving.ErrClosed
	// ErrOverloaded is returned in fail-fast mode when the queue is full.
	ErrOverloaded = serving.ErrOverloaded
)

// BatchBucket is one bin of the batch-size histogram: Count batches had a
// size <= Le (and above the previous bucket's bound); Le 0 means
// unbounded.
type BatchBucket = serving.BatchBucket

// ServerStats snapshots a Server's counters. The embedded dispatcher
// snapshot carries the pool size and generation (Shards, Generation), the
// request accounting (Requests, Served, Errors, Rejected, Deduped,
// Coalesced, and Issued = Served + CacheHits + Coalesced + Deduped), the
// batching counters (Batches, BatchedDocs, MeanBatchSize, MaxBatchSeen,
// BatchSizeHist), queue waits (QueueWaitTotal, QueueWaitMax,
// MeanQueueWait) and the cache counters (CacheHits, CacheMisses,
// CacheEvictions, CacheEntries, CacheCapacity; all zero with the cache
// off). Network adds the swarms' aggregate traffic.
type ServerStats struct {
	serving.Stats
	// Network aggregates the simulated traffic every shard's swarm
	// generated while serving under this Server, retired generations
	// included (traffic from before a generation's install — training,
	// offline refinement — is not counted; see (*Tagger).Stats for a
	// swarm's own cumulative view).
	Network NetworkStats
}

// Server is the concurrent serving front-end over a pool of engines —
// usually trained Taggers: many goroutines submit single documents, a
// micro-batching dispatcher coalesces them into AutoTagBatch calls fanned
// across the pool. A Tagger alone is not safe for concurrent use; a
// Server is — each shard is driven by exactly one goroutine.
//
// Shards answer interchangeably, so they must be identically trained (same
// Config including Seed, same documents). Identically trained shards give
// byte-identical answers — queries never feed back into the models, and
// the term-frequency features of a document do not depend on what was
// vectorized before it — which is what makes the pool transparent: results
// equal serial single-document AutoTag calls on any one shard. The same
// property is what makes the optional result cache (ServerConfig.CacheSize)
// sound: within one generation, identical text means identical tags.
//
// The pool is not frozen at build time: SwapEngines and Refresh install a
// new generation under live traffic — this is how (*Tagger).Refine
// reaches live serving. Refine a retired (or freshly built) generation
// offline, then swap it in; in-flight requests drain on the old models and
// the cache flushes.
type Server struct {
	inner *serving.Server

	refreshMu sync.Mutex // serializes SwapEngines/Refresh

	mu sync.Mutex // guards engines, baselines and retired
	// engines is the currently serving generation; used to refuse
	// installing an engine that is already serving.
	engines []Engine
	// baselines[i] is engines[i]'s cumulative swarm traffic at the moment
	// it was installed; only the excess counts, so Network is the traffic
	// generated while serving under this Server — uniformly across
	// generations, whether an engine arrived fresh or is a swapped-back
	// retiree (whose earlier service is in retired already). retired
	// accumulates the while-installed traffic of swapped-out generations,
	// keeping Network cumulative across swaps without retaining
	// references to dead generations.
	baselines []NetworkStats
	retired   NetworkStats
}

// NewEngineServer builds a Server over already-trained engines, one shard
// per engine — Taggers, or generations that did not come from local
// Taggers (a realnet ensemble over gossiped model sets, say). The engines
// must be distinct instances (the Server assumes exclusive ownership of
// each) and must answer interchangeably; see the Server doc. At least one
// engine is required, and a *Tagger must be trained.
func NewEngineServer(cfg ServerConfig, engines ...Engine) (*Server, error) {
	adapted, err := validEngines(engines)
	if err != nil {
		return nil, err
	}
	baselines := trafficBaselines(engines)
	inner, err := serving.New(servingConfig(cfg), adapted...)
	if err != nil {
		return nil, err
	}
	return &Server{
		inner:     inner,
		engines:   append([]Engine(nil), engines...),
		baselines: baselines,
	}, nil
}

func servingConfig(cfg ServerConfig) serving.Config {
	return serving.Config{
		MaxBatch:  cfg.MaxBatch,
		MaxQueue:  cfg.MaxQueue,
		FailFast:  cfg.FailFast,
		CacheSize: cfg.CacheSize,
	}
}

// validEngines validates a generation — non-empty, non-nil (a typed-nil
// *Tagger included), distinct, and trained where an engine is a *Tagger —
// and adapts it to the serving layer.
func validEngines(engines []Engine) ([]serving.Engine, error) {
	if len(engines) == 0 {
		return nil, errors.New("doctagger: a server pool needs at least one engine")
	}
	adapted := make([]serving.Engine, len(engines))
	seen := make(map[Engine]bool, len(engines))
	for i, e := range engines {
		tg, isTagger := e.(*Tagger)
		switch {
		case e == nil || isTagger && tg == nil:
			return nil, fmt.Errorf("doctagger: shard %d is nil", i)
		case seen[e]:
			return nil, fmt.Errorf("doctagger: shard %d reuses another shard's engine", i)
		case isTagger && !tg.trained:
			return nil, fmt.Errorf("doctagger: shard %d is not trained", i)
		}
		seen[e] = true
		adapted[i] = e
	}
	return adapted, nil
}

// traffic reads an engine's cumulative swarm traffic; engines without a
// Stats() NetworkStats method count zero.
func traffic(e Engine) NetworkStats {
	if s, ok := e.(interface{ Stats() NetworkStats }); ok {
		return s.Stats()
	}
	return NetworkStats{}
}

// trafficBaselines snapshots each engine's cumulative traffic at install
// time; only traffic beyond it counts toward the server's Network stats.
func trafficBaselines(engines []Engine) []NetworkStats {
	baselines := make([]NetworkStats, len(engines))
	for i, e := range engines {
		baselines[i] = traffic(e)
	}
	return baselines
}

// networkLocked is the traffic generated while serving under this
// Server: the retired generations' plus the live generation's above its
// install baselines. The caller holds s.mu.
func (s *Server) networkLocked() NetworkStats {
	n := s.retired
	for i, e := range s.engines {
		ns := traffic(e)
		n.Messages += ns.Messages - s.baselines[i].Messages
		n.Bytes += ns.Bytes - s.baselines[i].Bytes
	}
	return n
}

// NewReplicatedServer builds shards identical taggers with build (called
// with the shard index) and serves them as one pool. build must be
// deterministic — same Config, same Seed, same training documents for
// every shard — or the shards' answers will depend on which one handled a
// batch.
func NewReplicatedServer(shards int, cfg ServerConfig, build func(shard int) (*Tagger, error)) (*Server, error) {
	if shards < 1 {
		return nil, fmt.Errorf("doctagger: %d shards < 1", shards)
	}
	engines, err := buildGeneration(shards, build)
	if err != nil {
		return nil, err
	}
	return NewEngineServer(cfg, engines...)
}

// buildGeneration builds one tagger per shard with build, wrapping any
// failure with its shard index.
func buildGeneration(shards int, build func(shard int) (*Tagger, error)) ([]Engine, error) {
	engines := make([]Engine, shards)
	for i := range engines {
		tg, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("doctagger: building shard %d: %w", i, err)
		}
		engines[i] = tg
	}
	return engines, nil
}

// Tag submits one document and blocks until the swarm answers, ctx is
// cancelled, or — in fail-fast mode — the queue is full. Safe for
// arbitrary concurrent use. An already-cancelled ctx never enqueues work.
func (s *Server) Tag(ctx context.Context, text string) ([]string, error) {
	return s.inner.Tag(ctx, text)
}

// TagBatch submits many documents at once: they enter the dispatcher as
// pre-formed batches (chunked at MaxBatch) instead of coalescing through
// the per-request queue, so a bulk caller neither contends for the queue
// nor shares batches with single requests. Answers are pinned identical
// to per-document Tag calls — one tag list per input in input order,
// unanswerable rows nil, the first failure reported as the error alongside
// the remaining results (the AutoTagBatch contract).
func (s *Server) TagBatch(ctx context.Context, texts []string) ([][]string, error) {
	return s.inner.TagBatch(ctx, texts)
}

// SwapEngines installs engines as the new serving generation under live
// traffic. In-flight and queued requests are never dropped: they are
// answered by whichever generation their batch dispatches to, and the
// result cache flushes so no cached answer outlives its models. The
// engines are validated like NewEngineServer's and must not still be
// serving (an engine can be in at most one live generation, since each
// shard is driven by its own goroutine). The retired generation is fully
// drained when SwapEngines returns: its engines are the caller's to keep
// — refine retired taggers offline and swap them back in later — and its
// swarm traffic stays in the Network stats. A cluster node receiving a
// gossiped model generation wraps it per shard and swaps it in here.
func (s *Server) SwapEngines(engines ...Engine) error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	return s.swapLocked(engines)
}

// swapLocked is SwapEngines' body; the caller holds refreshMu.
func (s *Server) swapLocked(engines []Engine) error {
	adapted, err := validEngines(engines)
	if err != nil {
		return err
	}
	if err := s.checkNotServing(engines); err != nil {
		return err
	}
	// Snapshot the incoming generation's baselines before it can serve a
	// single request (the dispatcher switches inside inner.Swap, which
	// also waits out the old generation's drain — traffic served during
	// that window must not disappear into the baseline).
	baselines := trafficBaselines(engines)
	if err := s.inner.Swap(adapted...); err != nil {
		return err
	}
	s.mu.Lock()
	s.retired = s.networkLocked()
	s.engines = append([]Engine(nil), engines...)
	s.baselines = baselines
	s.mu.Unlock()
	return nil
}

// checkNotServing refuses engines already present in the live generation
// (each shard is driven by its own goroutine; an engine can serve in at
// most one generation at a time).
func (s *Server) checkNotServing(engines []Engine) error {
	s.mu.Lock()
	current := make(map[Engine]bool, len(s.engines))
	for _, e := range s.engines {
		current[e] = true
	}
	s.mu.Unlock()
	for i, e := range engines {
		if current[e] {
			return fmt.Errorf("doctagger: shard %d is still serving in the current generation", i)
		}
	}
	return nil
}

// Refresh rebuilds the pool at its current size with build (called with
// each shard index, like NewReplicatedServer) and swaps the new tagger
// generation in under live traffic, whatever built the current one. This
// is the serving face of tag refinement: refinements applied to a fresh
// training round reach live queries here, without restarting the server
// or dropping a request. The retired engines are discarded; use
// SwapEngines directly to keep them. Concurrent Refresh calls serialize
// around the whole rebuild, not just the swap, so retrains never run
// concurrently; each queued caller still performs its own rebuild once
// the lock frees (back-to-back installs, not wasted parallel ones).
// Refresh reports the generation number it installed — read it from the
// return value, not a later Stats snapshot, which a queued refresh may
// already have advanced.
func (s *Server) Refresh(build func(shard int) (*Tagger, error)) (int64, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.mu.Lock()
	shards := len(s.engines)
	s.mu.Unlock()
	engines, err := buildGeneration(shards, build)
	if err != nil {
		return 0, err
	}
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	if err := s.swapLocked(engines); err != nil {
		return 0, err
	}
	// Stable while refreshMu is held: no other SwapEngines/Refresh can
	// advance the generation underneath us.
	return s.inner.Stats().Generation, nil
}

// Stats snapshots the serving counters and the aggregate simulated
// traffic the shards' swarms generated while serving (retired generations
// included). Safe to call while the server is running.
func (s *Server) Stats() ServerStats {
	out := ServerStats{Stats: s.inner.Stats()}
	// Aggregate under the lock: a concurrent swap retires engines and
	// folds their traffic into retired, and the retirees' owner may
	// refine them immediately after — reading their traffic on a stale
	// snapshot would attribute that offline traffic here. Reading an
	// engine's traffic is a cheap counter read, so holding mu across the
	// loop is fine.
	s.mu.Lock()
	out.Network = s.networkLocked()
	s.mu.Unlock()
	return out
}

// Close drains and shuts down: new submissions fail with ErrServerClosed,
// every accepted request is answered first. Idempotent; concurrent calls
// wait for the first to finish.
func (s *Server) Close() { s.inner.Close() }
