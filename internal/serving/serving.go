// Package serving is the concurrent serving front-end of the system: a
// thread-safe micro-batching dispatcher over a sharded pool of batch
// classification engines, with an optional request-level result cache and
// live engine-pool replacement.
//
// Concurrent callers submit single documents with Server.Tag (or many at
// once with Server.TagBatch); a dispatcher goroutine coalesces them into
// batches — flushing when MaxBatch requests are pending or MaxDelay has
// passed since the first one, whichever comes first — and hands each batch
// to one engine of the shard pool. Every engine is driven by exactly one
// goroutine, so engines themselves need no internal locking (a
// *doctagger.Tagger, which is not safe for concurrent use, plugs in
// directly via AutoTagBatch).
//
// Batching is how the pool absorbs heavy traffic: one AutoTagBatch call
// amortizes the swarm's query fan-out and network drain over many
// documents, so the sustained request rate scales with batch size rather
// than per-document round trips. The queue is bounded, giving natural
// backpressure: submitters block (or fail fast, when configured) instead of
// growing memory without limit. Close drains — every accepted request is
// answered before shutdown completes.
//
// With Config.CacheSize > 0 a sharded bounded LRU keyed on document text
// answers repeated queries without touching the dispatcher at all. Caching
// is sound because queries never feed back into the models: identical text
// means identical tags for as long as one engine generation serves. The
// same soundness argument drives single-flight dedup, which is always on:
// concurrent Tag calls for identical text coalesce onto one in-flight
// engine query (Stats.Coalesced counts the riders).
//
// Swap installs a new engine generation under live traffic: new shard
// goroutines start on a fresh batch channel, the dispatcher switches over
// between batches, the old shards drain their in-flight work and exit, and
// the cache flushes so no answer outlives the models that produced it. No
// accepted request is ever dropped by a Swap.
package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is the batch classification back-end a Server shards over —
// implemented by (*doctagger.Tagger).AutoTagBatch. The contract mirrors
// AutoTagBatch: one tag list per input text in input order; rows the engine
// cannot answer are nil, and the returned error wraps the underlying cause
// of the first failed row. Answered rows should be non-nil (an empty answer
// as an empty list): when the batch error is set, a nil row cannot be told
// apart from the failed one and is treated as failed. Engines need not be
// safe for concurrent use; the Server serializes all calls to one engine on
// a single goroutine.
type Engine interface {
	AutoTagBatch(texts []string) ([][]string, error)
}

// Errors returned by Tag, TagBatch and Swap.
var (
	// ErrClosed is returned for requests submitted after Close began.
	ErrClosed = errors.New("serving: server is closed")
	// ErrOverloaded is returned in fail-fast mode when the queue is full.
	ErrOverloaded = errors.New("serving: request queue is full")
	// ErrNoResult is returned when the engine produced no row for a
	// document and reported no cause.
	ErrNoResult = errors.New("serving: engine returned no result")
)

// Config tunes the dispatcher.
type Config struct {
	// MaxBatch flushes a batch when this many requests have coalesced;
	// default 32.
	MaxBatch int
	// MaxDelay flushes a batch this long after its first request was
	// dequeued, even if it is smaller than MaxBatch; default 2ms. The
	// delay is the latency price of batching: under light load a request
	// waits at most MaxDelay for company.
	MaxDelay time.Duration
	// MaxQueue bounds the submission queue; default 8*MaxBatch. A full
	// queue blocks Tag (or rejects, with FailFast) — backpressure instead
	// of unbounded memory.
	MaxQueue int
	// FailFast makes Tag return ErrOverloaded immediately when the queue
	// is full instead of blocking until space frees up.
	FailFast bool
	// CacheSize bounds the request-level result cache (entries across all
	// cache shards); 0 disables caching. Repeated queries for the same
	// text are answered from the cache without entering the dispatcher;
	// the cache flushes whenever Swap installs a new engine generation.
	CacheSize int
}

func (c *Config) defaults() error {
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serving: MaxBatch %d < 1", c.MaxBatch)
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("serving: negative MaxDelay %v", c.MaxDelay)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8 * c.MaxBatch
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("serving: MaxQueue %d < 1", c.MaxQueue)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("serving: negative CacheSize %d", c.CacheSize)
	}
	return nil
}

// BatchBucket is one bin of the batch-size histogram: the count of batches
// whose size was <= Le (and greater than the previous bucket's Le). The
// last bucket has Le 0, meaning unbounded.
type BatchBucket struct {
	Le    int
	Count int64
}

// histogram bucket upper bounds; 0 terminates as +inf.
var bucketBounds = [8]int{1, 2, 4, 8, 16, 32, 64, 0}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Shards is the engine pool size of the current generation.
	Shards int
	// Generation counts engine pools installed so far: 1 at New, +1 per
	// successful Swap.
	Generation int64
	// Requests counts submissions accepted into the queue (cache hits are
	// answered before the queue and counted in CacheHits instead).
	Requests int64
	// Issued is the total number of answer rows handed to callers, however
	// produced: Issued = Served + CacheHits + Coalesced + Deduped. This is
	// the serving accounting identity — clients that count the rows they
	// asked for can check it against any node's snapshot.
	Issued int64
	// Served counts completed requests, failed ones included.
	Served int64
	// Deduped counts TagBatch rows answered by intra-batch deduplication:
	// duplicate texts in one call are computed once and fanned out, so
	// rows issued = Served + CacheHits + Coalesced + Deduped.
	Deduped int64
	// Coalesced counts Tag calls answered by single-flight dedup: a miss
	// for a text already in flight waits for that query's result instead
	// of issuing its own. A follower whose context cancels mid-wait stays
	// counted (mirroring how a cancelled-after-submit request stays in
	// Served), so the issued = Served + CacheHits + Coalesced + Deduped
	// identity is exact in the absence of cancellations.
	Coalesced int64
	// Errors counts requests that completed with an error.
	Errors int64
	// Rejected counts fail-fast rejections (never enqueued).
	Rejected int64
	// Batches counts engine invocations; BatchedDocs sums their sizes, so
	// MeanBatchSize = BatchedDocs / Batches.
	Batches       int64
	BatchedDocs   int64
	MeanBatchSize float64
	// MaxBatchSeen is the largest batch dispatched so far.
	MaxBatchSeen int
	// BatchSizeHist bins batch sizes; see BatchBucket.
	BatchSizeHist []BatchBucket
	// QueueWait aggregates the time requests spent between submission and
	// the start of their batch's engine call.
	QueueWaitTotal time.Duration
	QueueWaitMax   time.Duration
	MeanQueueWait  time.Duration
	// Cache counters; all zero when CacheSize is 0. CacheEntries is the
	// current population, CacheCapacity the configured bound.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheEntries   int
	CacheCapacity  int
}

type result struct {
	tags []string
	err  error
	gen  int64 // engine generation that produced the answer
}

// flight is one in-flight engine query that concurrent identical misses
// coalesce onto (single-flight dedup): the first miss for a text becomes
// the leader and travels through the dispatcher as usual; later Tag calls
// for the same text while the leader is outstanding just wait for its
// result. tags/err/gen are written once, before done closes.
type flight struct {
	done chan struct{}
	tags []string
	err  error
	gen  int64
}

type request struct {
	text     string
	enqueued time.Time
	ch       chan result // buffered(1): delivery never blocks a shard
}

// generation is one engine pool: a batch channel owned (as sender) solely
// by the dispatcher, and one goroutine per engine reading it. Swapping
// generations closes the old channel from the dispatcher — the only place
// that can do so without racing a send.
type generation struct {
	id      int64
	batches chan []*request
	workers sync.WaitGroup
}

// swapReq asks the dispatcher to retire its current generation in favor of
// gen; the dispatcher answers with the retired generation on reply.
type swapReq struct {
	gen   *generation
	reply chan *generation
}

// Server is the micro-batching front-end. All methods are safe for
// concurrent use.
type Server struct {
	cfg        Config
	queue      chan *request
	prebatched chan []*request // pre-formed TagBatch chunks, dispatcher-forwarded
	swapc      chan swapReq
	cache      *resultCache // nil when CacheSize is 0

	// flightMu guards flights, the single-flight table of in-flight Tag
	// misses by text. Entries are removed when their leader's result
	// arrives; Swap discards the table (leaders still complete their
	// waiters) so a post-swap miss always starts a fresh flight on the
	// new generation.
	flightMu sync.Mutex
	flights  map[string]*flight

	// swapMu serializes Swap calls and excludes them against Close's
	// closed-flag flip: a Swap that passes its closed-check is guaranteed
	// a live dispatcher for the whole installation, so Swap can never
	// "succeed" on a server that has already begun shutting down.
	swapMu sync.Mutex

	// closing mirrors closed for lock-free reads on the cache-hit fast
	// path (which takes no other server-wide lock).
	closing    atomic.Bool
	mu         sync.Mutex // guards closed, shards, generation and the counters
	closed     bool
	shards     int
	generation int64
	ctr        counters
	pending    sync.WaitGroup // accepted-but-unanswered requests
	workers    sync.WaitGroup // dispatcher (which itself awaits its generation)
	done       chan struct{}  // closed when shutdown completes
}

type counters struct {
	requests, served, errors, rejected int64
	deduped, coalesced                 int64
	batches, batchedDocs               int64
	maxBatch                           int
	hist                               [len(bucketBounds)]int64
	waitTotal, waitMax                 time.Duration
}

// New starts a Server over the given engine pool, one goroutine per engine
// plus the dispatcher. The engines must be distinct instances; when callers
// need shard answers to be interchangeable (they usually do), the engines
// must also be identically trained.
func New(cfg Config, engines ...Engine) (*Server, error) {
	if len(engines) == 0 {
		return nil, errors.New("serving: need at least one engine")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *request, cfg.MaxQueue),
		prebatched: make(chan []*request),
		swapc:      make(chan swapReq),
		cache:      newResultCache(cfg.CacheSize),
		flights:    make(map[string]*flight),
		shards:     len(engines),
		generation: 1,
		done:       make(chan struct{}),
	}
	g := s.newGeneration(1, engines)
	s.workers.Add(1)
	go s.dispatch(g)
	return s, nil
}

// newGeneration starts one shard goroutine per engine on a fresh batch
// channel and returns the generation; the caller hands it to the
// dispatcher (at New or through swapc).
func (s *Server) newGeneration(id int64, engines []Engine) *generation {
	g := &generation{id: id, batches: make(chan []*request)}
	g.workers.Add(len(engines))
	for _, e := range engines {
		go s.serve(g, e)
	}
	return g
}

// errFlightAborted is the internal sentinel a flight carries when its
// leader gave up before submitting the query (context cancelled during a
// blocked enqueue); waiting followers re-enter Tag and race to lead a
// fresh flight.
var errFlightAborted = errors.New("serving: flight leader aborted before submitting")

// Tag submits one document and blocks until the swarm answers, the context
// is cancelled, or — in fail-fast mode — the queue is full. An
// already-cancelled context never enqueues work, in either mode. A context
// cancelled after submission abandons the wait but not the work: the
// request still flows through its batch (counted in Served) and its
// result still completes the flight below (and the cache), even though
// this caller no longer reads it.
//
// Concurrent Tag calls for identical text are single-flighted: the first
// miss (the leader) issues the swarm query; identical misses arriving
// while it is outstanding wait for the leader's result instead of issuing
// their own, and are counted in Stats.Coalesced. Dedup shares the cache's
// soundness argument — within one engine generation, identical text means
// identical tags — and like the cache it is generation-pure: Swap discards
// the in-flight table, so a miss after a swap always queries the new
// models. Leaders share server-wide failures (ErrClosed, ErrOverloaded,
// engine errors) with their followers; a leader cancelled before it could
// submit hands the flight back, and its followers transparently retry.
func (s *Server) Tag(ctx context.Context, text string) ([]string, error) {
	for {
		tags, err := s.tagOnce(ctx, text)
		if err == errFlightAborted {
			continue
		}
		return tags, err
	}
}

// tagOnce is one attempt of Tag: answer from cache, join an in-flight
// identical query, or lead a new one. It returns errFlightAborted only
// when a joined flight's leader aborted before submitting, in which case
// Tag retries.
func (s *Server) tagOnce(ctx context.Context, text string) ([]string, error) {
	// A pre-cancelled context must not win the submission select by
	// chance: refuse before touching the queue.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cache-hit fast path: no server-wide lock, no drain-set membership —
	// a hit answers immediately and owes Close nothing. The lock-free
	// closing check keeps the ErrClosed contract; the miss path re-checks
	// under mu before entering the drain set.
	if s.closing.Load() {
		return nil, ErrClosed
	}
	if s.cache != nil {
		if tags, ok := s.cache.get(text); ok {
			return tags, nil
		}
	}
	// Single-flight: join an identical in-flight miss, or register as the
	// leader. Registration happens before enqueueing, so once a leader's
	// request is visible in the counters every later identical miss is
	// guaranteed to coalesce.
	s.flightMu.Lock()
	if f := s.flights[text]; f != nil {
		s.flightMu.Unlock()
		s.count(func(c *counters) { c.coalesced++ })
		select {
		case <-f.done:
			if f.err == errFlightAborted {
				// The leader never submitted; this join served nothing.
				// Uncount it — the retry will count once wherever it
				// lands (as a fresh leader in Requests, or as a
				// follower of a live flight).
				s.count(func(c *counters) { c.coalesced-- })
				return nil, errFlightAborted
			}
			if f.err != nil {
				return nil, f.err
			}
			// Followers get their own copy so no caller can mutate
			// another waiter's slice.
			return slices.Clone(f.tags), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[text] = f
	s.flightMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finishFlight(text, f, result{err: ErrClosed})
		return nil, ErrClosed
	}
	// Registering under the lock pairs with Close: once closed is set, no
	// new request can join the drain set.
	s.pending.Add(1)
	s.mu.Unlock()
	req := &request{text: text, enqueued: time.Now(), ch: make(chan result, 1)}
	if s.cfg.FailFast {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.pending.Done()
			s.abortFlight(text, f)
			return nil, ctx.Err()
		default:
			s.pending.Done()
			s.count(func(c *counters) { c.rejected++ })
			s.finishFlight(text, f, result{err: ErrOverloaded})
			return nil, ErrOverloaded
		}
	} else {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.pending.Done()
			s.abortFlight(text, f)
			return nil, ctx.Err()
		}
	}
	s.count(func(c *counters) { c.requests++ })
	select {
	case r := <-req.ch:
		s.settleFlight(text, f, r)
		return r.tags, r.err
	case <-ctx.Done():
		// The accepted work still completes; hand flight (and cache)
		// settlement to a helper so followers are not stranded.
		go func() {
			s.settleFlight(text, f, <-req.ch)
		}()
		return nil, ctx.Err()
	}
}

// settleFlight records a leader's engine result: successful answers enter
// the cache first (so a new request races toward a hit, not a duplicate
// flight), then the flight completes and leaves the table.
func (s *Server) settleFlight(text string, f *flight, r result) {
	if r.err == nil && s.cache != nil {
		s.cache.add(text, r.tags, r.gen)
	}
	s.finishFlight(text, f, r)
}

// finishFlight publishes r to f's waiters and removes f from the flight
// table (unless a Swap already replaced the table). The flight keeps its
// own copy of the tags: the leader's caller receives (and may mutate) the
// engine's slice, so followers must never alias it.
func (s *Server) finishFlight(text string, f *flight, r result) {
	f.tags, f.err, f.gen = slices.Clone(r.tags), r.err, r.gen
	s.flightMu.Lock()
	if s.flights[text] == f {
		delete(s.flights, text)
	}
	s.flightMu.Unlock()
	close(f.done)
}

// abortFlight withdraws a flight whose leader could not submit its query;
// followers retry against a fresh flight.
func (s *Server) abortFlight(text string, f *flight) {
	s.finishFlight(text, f, result{err: errFlightAborted})
}

// TagBatch submits many documents at once. Unlike len(texts) separate Tag
// calls, the documents skip per-request coalescing and enter the
// dispatcher as pre-formed batches (chunked at MaxBatch), so a bulk caller
// pays no MaxDelay and no queue contention. Answers are identical to
// per-document Tag calls: one tag list per input in input order, rows the
// swarm cannot answer nil, with the first failure reported as the error
// alongside the remaining results (mirroring AutoTagBatch). Documents with
// cached answers are served from the cache, duplicate texts are computed
// once and fanned out to every duplicate row; only distinct misses reach
// the engines. Inside an engine shard each document of a chunk is
// preprocessed in the shard's reused scratch (see doctagger.AutoTagBatch
// and realnet.Ensemble.AutoTagBatch), so no per-chunk vectors are
// materialized.
//
// Submission blocks until the dispatcher accepts every chunk or ctx is
// cancelled; TagBatch does not fail fast. As with Tag, cancelling after
// submission abandons the wait, not the accepted work.
func (s *Server) TagBatch(ctx context.Context, texts []string) ([][]string, error) {
	if len(texts) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closing.Load() {
		return nil, ErrClosed
	}
	out := make([][]string, len(texts))
	errs := make([]error, len(texts))
	// Resolve cache hits first; only the misses need to join the drain
	// set and travel through the dispatcher. Duplicate texts collapse to
	// one request each — identical text means identical tags within a
	// generation, so one computed answer fans out to every duplicate row.
	var misses []*request
	missIdx := make([][]int, 0, len(texts)) // output rows per miss
	byText := make(map[string]int, len(texts))
	var deduped int64
	now := time.Now()
	for i, text := range texts {
		if j, ok := byText[text]; ok {
			missIdx[j] = append(missIdx[j], i)
			deduped++
			continue
		}
		if s.cache != nil {
			if tags, ok := s.cache.get(text); ok {
				out[i] = tags
				continue
			}
		}
		byText[text] = len(misses)
		misses = append(misses, &request{text: text, enqueued: now, ch: make(chan result, 1)})
		missIdx = append(missIdx, []int{i})
	}
	if len(misses) == 0 {
		return out, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.pending.Add(len(misses))
	s.mu.Unlock()
	submitted := 0
	for start := 0; start < len(misses); start += s.cfg.MaxBatch {
		end := min(start+s.cfg.MaxBatch, len(misses))
		chunk := misses[start:end:end]
		select {
		case s.prebatched <- chunk:
			submitted = end
			s.count(func(c *counters) { c.requests += int64(len(chunk)) })
		case <-ctx.Done():
			// Unsubmitted requests leave the drain set; submitted ones
			// are abandoned but still flow through their batches.
			for range misses[submitted:] {
				s.pending.Done()
			}
			return nil, ctx.Err()
		}
	}
	// Count fan-out rows only once every chunk is admitted, so the
	// served + hits + deduped accounting never includes rows from a call
	// that was cancelled or refused during submission.
	if deduped > 0 {
		s.count(func(c *counters) { c.deduped += deduped })
	}
	for j, r := range misses {
		select {
		case res := <-r.ch:
			for k, i := range missIdx[j] {
				if res.err != nil {
					errs[i] = res.err
					continue
				}
				if k == 0 {
					out[i] = res.tags
				} else {
					// Duplicate rows get their own copy, matching the
					// distinct slices per-row engine calls would return.
					out[i] = slices.Clone(res.tags)
				}
			}
			if res.err == nil && s.cache != nil {
				s.cache.add(r.text, res.tags, res.gen)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var firstErr error
	for i, e := range errs {
		if e != nil {
			firstErr = fmt.Errorf("serving: document %d: %w", i, e)
			break
		}
	}
	return out, firstErr
}

// Swap atomically installs a new engine generation under live traffic: the
// new shards start first, the dispatcher switches to them between batches,
// the old shards drain their in-flight batches and exit, and the result
// cache flushes so no cached answer outlives the models that produced it.
// No accepted request is dropped — work queued before the swap is simply
// served by whichever generation its batch dispatches to. Swap returns
// after the old generation has fully drained, so its engines are safe to
// reuse (e.g. to refine offline and swap back in later).
//
// The new engines must answer interchangeably with each other; whether
// they must also match the retired generation is the caller's consistency
// contract, not the dispatcher's.
func (s *Server) Swap(engines ...Engine) error {
	if len(engines) == 0 {
		return errors.New("serving: Swap needs at least one engine")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	id := s.generation + 1
	s.mu.Unlock()
	g := s.newGeneration(id, engines)
	sw := swapReq{gen: g, reply: make(chan *generation, 1)}
	//dmtvet:allow lockdiscipline swapMu exists to serialize swaps; blocking while holding it is its job, and only Swap/Close contend
	select {
	case s.swapc <- sw:
	case <-s.done:
		// Defensive only: holding swapMu, Close cannot flip closed under
		// us, so a Swap that passed the check above always finds the
		// dispatcher alive. Kept so a future Close refactor degrades to
		// ErrClosed instead of a deadlock.
		close(g.batches)
		//dmtvet:allow lockdiscipline defensive drain of the never-started generation; nothing else can hold swapMu once done is closed
		g.workers.Wait()
		return ErrClosed
	}
	//dmtvet:allow lockdiscipline the dispatcher always replies after taking sw from swapc; swapMu serializes swaps by design
	old := <-sw.reply
	// Flush as soon as the dispatcher has switched, not after the old
	// shards drain: from here on new-generation answers are cacheable,
	// while any straggling old-generation result is rejected by its
	// generation stamp — so a slow draining batch cannot stall or poison
	// the cache.
	if s.cache != nil {
		s.cache.flush(id)
	}
	// Discard the single-flight table for the same reason: a miss from
	// here on must query the new generation, not piggyback on an
	// old-generation leader. Outstanding leaders still complete their
	// already-joined waiters (who submitted before the swap finished).
	s.flightMu.Lock()
	s.flights = make(map[string]*flight)
	s.flightMu.Unlock()
	//dmtvet:allow lockdiscipline Swap's contract is to return only after the old generation drains; swapMu intentionally serializes that wait
	old.workers.Wait() // old shards have drained and exited
	s.mu.Lock()
	s.generation = id
	s.shards = len(engines)
	s.mu.Unlock()
	return nil
}

// dispatch coalesces queued requests into batches: a batch opens with the
// first request pulled from the queue and flushes at MaxBatch requests or
// MaxDelay after opening, whichever comes first. Pre-formed TagBatch
// chunks are forwarded as-is, and swap requests switch cur between
// batches. The dispatcher is the sole sender on every generation's batch
// channel, which is what makes closing one on swap or shutdown safe.
func (s *Server) dispatch(cur *generation) {
	defer func() {
		close(cur.batches)
		cur.workers.Wait()
		s.workers.Done()
	}()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case first, ok := <-s.queue:
			if !ok {
				return
			}
			batch := append(make([]*request, 0, s.cfg.MaxBatch), first)
			timer.Reset(s.cfg.MaxDelay)
			open := true
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r, ok := <-s.queue:
					if !ok {
						open = false
						break collect
					}
					batch = append(batch, r)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			cur.batches <- batch
			if !open {
				return
			}
		case chunk := <-s.prebatched:
			cur.batches <- chunk
		case sw := <-s.swapc:
			close(cur.batches)
			old := cur
			cur = sw.gen
			sw.reply <- old
		}
	}
}

// serve drives one engine of generation g: it owns every call into e, so e
// sees strictly serial use. It exits when g's batch channel closes (swap
// or shutdown), after finishing any in-flight batch.
func (s *Server) serve(g *generation, e Engine) {
	defer g.workers.Done()
	var results []result // reused across batches
	for batch := range g.batches {
		start := time.Now()
		texts := make([]string, len(batch))
		for i, r := range batch {
			texts[i] = r.text
		}
		out, err := e.AutoTagBatch(texts)
		// The batch error wraps the cause of the first failed row
		// (e.g. "document 3: no answer"); unwrap it so per-request errors
		// don't carry another request's batch-relative index.
		cause := err
		if err != nil {
			if u := errors.Unwrap(err); u != nil {
				cause = u
			}
		}
		results = results[:0]
		var failed int64
		for i := range batch {
			res := result{gen: g.id}
			switch {
			case i < len(out) && out[i] != nil:
				res.tags = out[i]
			case err == nil && i < len(out):
				// A nil row without an error is a legal empty answer;
				// normalize it to an empty non-nil list so that a nil
				// answer always means failure (TagBatch callers rely on
				// the distinction to retry exactly the failed rows).
				res.tags = []string{}
			case err != nil:
				res.err = cause
			default:
				res.err = ErrNoResult
			}
			if res.err != nil {
				failed++
			}
			results = append(results, res)
		}
		var waitTotal, waitMax time.Duration
		for _, r := range batch {
			w := start.Sub(r.enqueued)
			waitTotal += w
			if w > waitMax {
				waitMax = w
			}
		}
		n := len(batch)
		s.count(func(c *counters) {
			c.served += int64(n)
			c.errors += failed
			c.batches++
			c.batchedDocs += int64(n)
			if n > c.maxBatch {
				c.maxBatch = n
			}
			c.hist[bucketFor(n)]++
			c.waitTotal += waitTotal
			if waitMax > c.waitMax {
				c.waitMax = waitMax
			}
		})
		// Reply only after counting, so a Stats read right after an
		// answer already includes its batch.
		for i, r := range batch {
			r.ch <- results[i]
			s.pending.Done()
		}
	}
}

func bucketFor(n int) int {
	for i, le := range bucketBounds {
		if le == 0 || n <= le {
			return i
		}
	}
	return len(bucketBounds) - 1
}

func (s *Server) count(f func(*counters)) {
	s.mu.Lock()
	f(&s.ctr)
	s.mu.Unlock()
}

// Stats snapshots the counters. Safe to call at any time, including after
// Close.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	c := s.ctr
	shards := s.shards
	gen := s.generation
	s.mu.Unlock()
	st := Stats{
		Shards:         shards,
		Generation:     gen,
		Requests:       c.requests,
		Served:         c.served,
		Deduped:        c.deduped,
		Coalesced:      c.coalesced,
		Errors:         c.errors,
		Rejected:       c.rejected,
		Batches:        c.batches,
		BatchedDocs:    c.batchedDocs,
		MaxBatchSeen:   c.maxBatch,
		QueueWaitTotal: c.waitTotal,
		QueueWaitMax:   c.waitMax,
	}
	if c.batches > 0 {
		st.MeanBatchSize = float64(c.batchedDocs) / float64(c.batches)
	}
	if c.served > 0 {
		st.MeanQueueWait = c.waitTotal / time.Duration(c.served)
	}
	st.BatchSizeHist = make([]BatchBucket, len(bucketBounds))
	for i, le := range bucketBounds {
		st.BatchSizeHist[i] = BatchBucket{Le: le, Count: c.hist[i]}
	}
	if s.cache != nil {
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheEvictions = s.cache.evictions.Load()
		st.CacheEntries = s.cache.len()
		st.CacheCapacity = s.cache.capacity
	}
	st.Issued = st.Served + st.CacheHits + st.Coalesced + st.Deduped
	return st
}

// Close drains and shuts down: new submissions fail with ErrClosed, every
// already-accepted request is answered, then the dispatcher and shard
// goroutines exit. Close blocks until the drain completes and is safe to
// call more than once (later calls wait for the first to finish).
func (s *Server) Close() {
	// Taking swapMu excludes an in-flight Swap: either the swap fully
	// installs before we flip closed (and we drain through the new
	// generation), or it starts after and fails its closed-check — Swap
	// can never report success on a server that has begun shutting down.
	s.swapMu.Lock()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.closing.Store(true)
	s.swapMu.Unlock()
	if already {
		<-s.done
		return
	}
	// Every request ever admitted past the closed check is registered in
	// pending, and the dispatcher is still consuming — both the queue and
	// pre-formed chunks — so this terminates.
	s.pending.Wait()
	close(s.queue)
	s.workers.Wait()
	close(s.done)
}
