// Package doctagger is a from-scratch reproduction of P2PDocTagger (Ang,
// Gopalkrishnan, Ng, Hoi — PVLDB 3(2):1601-1604, VLDB 2010): an automated,
// distributed collaborative document tagging system based on classification
// in P2P networks.
//
// The package exposes the full pipeline of the paper's Fig. 1:
//
//	select documents → preprocess → manual tagging →
//	P2P collaborative learning → automatic tagging → tag refinement
//
// A Tagger embeds a simulated peer swarm (the paper's own demonstrations
// ran on the P2PDMT simulator for the same reason: realistic P2P testing
// needs hundreds of machines). The local user is peer 0; the remaining
// peers contribute their own labeled documents, and the configured P2P
// classification protocol — CEMPaR (cascade kernel SVMs at DHT-elected
// super-peers) or PACE (linear SVM ensembles indexed by LSH) — pools their
// knowledge. Centralized and local-only engines are included as the
// baselines every experiment compares against.
//
// A Library persists tag metadata, answers tag searches, and builds the
// co-occurrence tag cloud of the paper's Fig. 4.
//
// The experiment harness reproducing the paper's demonstration scenarios
// lives in bench_test.go (one benchmark per experiment; see EXPERIMENTS.md)
// and is driven by the P2PDMT toolkit under internal/p2pdmt.
//
// # Parallel execution
//
// CPU-bound work throughout the system runs on internal/runner, a
// deterministic parallel execution subsystem: independent jobs fan out
// over a GOMAXPROCS-sized worker pool and results are collected in
// submission order, so parallel output is byte-identical to a serial run.
// Two layers use it:
//
//   - Experiment sweeps (internal/experiments): every (experiment, config)
//     cell is an independent job building its own simulated network from
//     its own seed. Rows append in declaration order. Run sweeps with
//     "cmd/experiments -parallel N" (0 = all cores, 1 = serial); "-seed S"
//     re-seeds a sweep, deriving an independent seed per cell via
//     runner.DeriveSeed(S, experimentID, cellCoordinates...) — FNV-1a over
//     the cell's identity finished with the SplitMix64 avalanche, so no
//     two cells share a random stream and neither scheduling order nor
//     worker count can change any cell's result.
//   - Per-peer training (internal/p2pdmt and the protocols): each peer's
//     local SVM training reads only that peer's shard, so peers train
//     concurrently; only the protocol message exchange stays on the
//     simulator's virtual clock. CEMPaR's per-tag regional cascades and
//     the centralized baseline's per-tag global models parallelize the
//     same way. See p2pdmt.Config.Parallel and Config.Parallel.
//
// The determinism contract — parallel execution is bit-identical to
// serial — is enforced by tests at both layers (see
// internal/experiments/determinism_test.go, TestRunParallelMatchesSerial)
// and the suite is race-clean under "go test -race ./...".
//
// # Parallel simulation
//
// The simulator itself (internal/simnet) is a sharded conservative
// parallel discrete-event engine (PDES), so one large network can also be
// split across cores — orthogonal to the sweep- and peer-level parallelism
// above, and the piece that makes >512-peer message-heavy simulations
// tractable. Nodes partition over Config.Shards shards by id; each shard
// owns an event heap and clock. Virtual time advances in barrier-
// synchronized windows one lookahead wide — the lookahead is the latency
// model's minimum link delay, so no message sent inside a window can be
// due before the window ends — and within a window the shards execute
// concurrently on internal/runner workers, exchanging cross-shard messages
// through mailboxes that merge at the barrier. System events (churn,
// stabilizers) run alone at global barriers.
//
// The determinism contract is the same as everywhere else in the repo:
// stats, experiment tables and tag assignments are byte-identical at every
// shard count, because events are ordered by (time, creating node,
// per-node counter) rather than by arrival, and every node draws latency
// jitter, drop decisions and churn sessions from a private stream derived
// via runner.DeriveSeed(seed, nodeID). The knob threads through every
// layer: doctagger.Config.Shards, p2pdmt.Config.Shards,
// experiments.Scale.Shards, "cmd/experiments -shards" and
// "cmd/p2pdmt -shards"; BenchmarkSimnetShards measures the wall-clock
// scaling and the TestShardCountInvariance tests verify the checksums
// agree.
//
// # Serving
//
// A Tagger is not safe for concurrent use; a Server is. Server (backed by
// internal/serving) turns a pool of identically trained Taggers into a
// concurrent serving front-end: goroutines submit single documents with
// Tag (or many at once with TagBatch, which enters the dispatcher as
// pre-formed batches), and a micro-batching dispatcher hands each batch to
// the first idle shard — a lone request leaves at once, and requests that
// arrive while every shard is busy coalesce, up to MaxBatch. One goroutine
// drives each shard, with bounded queueing for backpressure, per-request
// error propagation and a graceful drain on Close. Batched answers are
// exactly what serial AutoTag calls would return for the same inputs; the
// Stats snapshot (batch counts, batch-size histogram, queue waits, cache
// counters, aggregate swarm traffic) shows what the batching bought. See
// ExampleServer, and cmd/p2pserve for the HTTP/JSON face of the same layer
// (POST /v1/tag, /v1/tag/batch, /v1/refresh, GET /v1/stats, /healthz,
// /readyz).
//
// Two serving capabilities ride on the determinism contract:
//
//   - Request-level caching (ServerConfig.CacheSize): a sharded, bounded
//     LRU keyed on document text answers repeated queries without
//     re-entering a swarm. Sound because queries never feed back into the
//     models — identical text means identical tags for as long as one
//     model generation serves. Cached answers are test-pinned
//     byte-identical to uncached serial AutoTag.
//   - Live model refresh (Server.SwapEngines / Server.Refresh): a new
//     generation is installed under traffic — new shards start, the
//     dispatcher switches between batches, old shards drain in-flight work
//     and exit, the cache flushes so no answer outlives its models, and no
//     accepted request is dropped. Every generation is a pool of Engines
//     (AutoTagBatch over texts, the minimal contract the dispatcher
//     needs): a *Tagger is one, a realnet ensemble over gossiped model
//     sets is another. NewEngineServer and SwapEngines are the one
//     constructor and the one install path; NewReplicatedServer and
//     Refresh build identical taggers and go through them, Refresh at the
//     pool's current size whatever built the current generation. This is
//     how (*Tagger).Refine reaches live serving: refine a retired (or
//     freshly built) generation offline, then swap it in — the paper's
//     "upon the refinement of tags, P2PDocTagger will automatically update
//     the classification model(s)", made concurrent. Engines with a
//     Stats() NetworkStats method (Taggers) feed ServerStats.Network.
//   - Single-flight dedup (always on): concurrent Tag calls for identical
//     text coalesce onto one in-flight swarm query per model generation;
//     followers wait for the leader's answer instead of issuing their own
//     (ServerStats.Coalesced counts them). Same soundness argument as the
//     cache, same generation purity: a swap discards the in-flight table.
//
// ServerStats.Issued exposes the serving accounting identity (Issued =
// Served + CacheHits + Coalesced + Deduped), the invariant cluster tests
// check per node.
//
// # Distributed serving cluster
//
// internal/realnet composes with the Engine pool into a distributed
// serving cluster: real TCP peers gossip whole model generations
// (wire-encoded calibrated model sets, flooded with (sequence, origin)
// dedup and periodic anti-entropy rebroadcast by the origin), and every
// node installs an arriving generation through SwapEngines as a
// realnet.Ensemble — an accuracy-weighted vote over the gossiped per-tag
// models, deterministic in (corpus, seed), so every node answers
// byte-identically. The realnet transport is hardened for that role:
// per-peer retry budgets with seed-derived exponential backoff, dead-peer
// quarantine with re-probe, per-frame read deadlines, frame corruption and
// sender-address validation, bounded peer tables, and per-peer counters
// (sends, retries, failures, frames and bytes in/out) surfaced through
// Node.Transport(). Publish and PublishGeneration report per-peer partial
// failure instead of a single error.
//
// cmd/p2pserve ties it together ("-mesh", "-mesh-join"): N processes form
// a mesh, POST /v1/publish trains and floods a generation cluster-wide,
// GET /v1/stats adds the transport counters and installed generation, and
// the cluster chaos test (cmd/p2pserve/cluster_test.go) pins the
// acceptance story — a node killed and restarted and a partition healed
// while every query keeps answering byte-identically to a serial
// reference with zero dropped requests. perfbench's publish-under-load
// workload measures the composition over real processes (BENCHMARK.json,
// perfbench/README.md).
//
// # Adversarial resilience
//
// The mesh assumes Byzantine peers, not just crashed ones. Every inbound
// generation runs a validation pipeline before it touches any state: a
// wire-size budget checked against the frame's length prefix before any
// payload is allocated, a content digest carried in the frame (wire.Checksum
// over the encoded set — corrupt or tampered bytes fail before the
// decoder runs), hardened wire decoders whose allocations grow
// incrementally against claimed lengths (fuzzed, with a committed seed
// corpus), structural validation (tag/dimension caps, finite-weight scan
// rejecting NaN/Inf), and a holdout probe scoring the set against a small
// local corpus — plausible-looking but systematically wrong models
// (weight-scaled, label-flipped) fail here. Rejections feed a per-origin
// trust ledger: a rejected origin's score halves and it is quarantined
// for a seed-jittered window (runner.DeriveSeed per origin), after which
// the next generation it gossips is re-probed; accepted generations
// rebuild score. Only trust-admitted generations install, relay, or reach
// the serving swap — and trust scores multiply into the Ensemble vote
// (NewWeightedEnsemble), with full trust exactly bit-invisible so the
// byte-determinism pins hold. Stale (sequence, origin) echoes are normal
// gossip traffic, deduplicated without charging trust.
//
// realnet.Adversary is the attack side: a deterministic scripted
// Byzantine peer (NaN bombs, weight-scaled poison, label-flipped
// retrains, stale replays, forged-origin floods — every corruption drawn
// from runner.DeriveSeed streams) that folds each frame it builds into a
// digest, so a dry run pins byte-for-byte what a live run injected.
// TestClusterByzantine (cmd/p2pserve) drives it against a serving cluster
// under continuous load: every answer stays byte-identical to the serial
// reference, nothing poisoned installs, and /v1/stats shows the rejects
// and demoted trust.
//
// # Inference fast path
//
// Every cache miss runs the zero-allocation inference fast path:
//
//   - Pooled preprocessing: Vectorize tokenizes, filters, stems (in place,
//     on bytes) and counts terms on a sync.Pool workspace — zero
//     allocations in steady state except the returned vector itself (two
//     allocations; terms new to the lexicon add O(1) amortized more).
//     Workspaces must never escape the call that took them from the pool;
//     everything handed to callers is copied out.
//   - Fused multi-tag scoring: each protocol packs its per-tag linear
//     models into one svm.FusedLinear inverted score matrix (feature id ->
//     per-tag weights; CSR cells for sparse pruned ensembles, dense or
//     8-wide blocked rows for shared-pool banks), so scoring T tags is one
//     ascending pass over the document's non-zero entries instead of T dot
//     products. The matrix is immutable derived data, rebuilt wherever the
//     bank changes (retraining, Refine, serving SwapEngines/Refresh).
//   - Cached kernel norms: RBF KernelModels precompute their support
//     vectors' squared norms (KernelModel.Precompute, called at every
//     construction site) and hoist the query norm, so each kernel
//     evaluation is a single sparse dot product.
//
// Every stage is pinned byte-identical to the straightforward
// implementation it replaced — reference copies of the seed tokenizer,
// vectorizer and kernel evaluation live in the tests and must agree on
// exact float64 bit patterns — so the fast path changes latency, never
// answers. The go test -bench micro-benchmarks (BenchmarkAutoTag,
// BenchmarkVectorize, BenchmarkFusedScoring) time each stage, and
// perfbench (BENCHMARK.json) times the whole path end to end.
//
// # Streaming execution
//
// Every protocol has one query entry point, protocol.Classifier.Predict,
// and the Tagger reaches it by one route: Preprocessor.VectorizeInto hands
// the pooled, sorted, weighted entries to a vector.Borrow view, Predict
// scores it (the local protocols via FusedLinear.ScoreEntriesInto into
// reused scratch), and protocol.SelectTagsInto thresholds out of reused
// scratch, so a whole local AutoTag runs in at most two allocations (the
// returned tags). AutoTagBatch issues every row the same way and runs
// the network once. These contracts make it safe:
//
//   - Borrow contract: Predict's query is valid only until Predict
//     returns, so a protocol that answers after the network runs clones
//     it (CEMPaR always, Centralized off the coordinator); the scores
//     handed to the callback may be reused scratch, so the callback
//     consumes or copies them.
//   - Layout selection: NewFusedLinear keeps banks under 25% fill in CSR;
//     denser banks with at least four tags use the blocked layout (rows
//     zero-padded to multiples of eight, scored in register-resident
//     accumulator blocks with bounds-check-free unrolled loops), scalar
//     dense rows otherwise. NewFusedLinearLayout forces a layout.
//   - Bit-identity: every layout accumulates each tag's partial sums over
//     entries in ascending feature-id order and padding lanes only add
//     v*0, so all three layouts reproduce per-tag Decision exactly.
//   - Scratch lifetime: the entries VectorizeInto passes to its visitor
//     live in pooled scratch, valid only until the visit returns — consume
//     or copy, never retain. dmtvet/scratchescape enforces this
//     mechanically.
//
// # Static analysis / invariants
//
// The contracts above are not just prose: cmd/dmtvet (internal/lint) is a
// suite of custom analyzers — built on internal/lint/analysis, an
// offline, API-compatible stand-in for golang.org/x/tools/go/analysis
// grown into a flow-aware interprocedural engine (intra-module call graph
// plus deterministic per-function summaries, so facts cross call
// boundaries) — that enforces them at vet time, as a required CI step
// next to go vet:
//
//   - detrand: no wall-clock reads (time.Now/Since/Until), global
//     math/rand draws, or rand generators whose seed does not flow from
//     runner.DeriveSeed or a Config/Options seed field, inside the
//     deterministic packages (simnet, p2pdmt, cempar, pace, baseline,
//     experiments, textproc, svm, runner and the simulation substrate) —
//     including nondeterminism smuggled in through helpers elsewhere in
//     the module.
//   - maprange: no order-dependent reductions over map iteration (float
//     accumulation, string concatenation, unsorted appends) — the latent
//     MacroF1 bug class fixed by hand in PR 1.
//   - scratchescape: pooled scratch workspaces must not escape the
//     borrowing call (the preprocessing contract above), even through a
//     helper that returns or retains its parameter.
//   - enginerules: node event handlers must not call serial-point engine
//     APIs (AddNode/RemoveNode/Kill/Revive/ScheduleSystem) or the setup
//     stream Rand — the PDES discipline, previously a runtime panic, as a
//     compile-time diagnostic.
//   - fusedmut: svm.FusedLinear is immutable outside NewFusedLinear (the
//     rebuild-on-swap contract above), even when its backing memory is
//     handed to a helper that mutates its parameter.
//   - lockdiscipline: no blocking operation (channel op, select,
//     WaitGroup.Wait, sleep, network/file I/O — directly or through a
//     callee whose summary blocks) while a mutex is held, no lock-order
//     inversions against the program-wide observed acquisition order, no
//     re-acquiring a held lock class, no copying values containing sync
//     primitives.
//   - goroleak: every spawned goroutine has a join or cancel path (a
//     channel op, select, close, WaitGroup.Done, or context-done) so
//     Close/drain can wait for it — the drain contracts above.
//   - waiverstale: a waiver comment that no longer suppresses anything is
//     itself a diagnostic, so suppressions stay honest.
//
// Run `go run ./cmd/dmtvet ./...` (or `make lint`) locally — identical to
// CI (runs are content-hash cached; -nocache opts out, -json and
// -diff <ref> serve machine consumers and review workflows). Surgical
// exceptions use a mandatory-reason waiver comment on or directly above
// the offending line:
//
//	//dmtvet:allow <analyzer> <reason>
package doctagger
