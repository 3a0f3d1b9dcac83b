// Package realnet is the real-network deployment path of P2PDocTagger,
// backing the paper's claim that "code written for P2PDMT is reusable in
// real applications": actual TCP peers exchange the same calibrated
// one-vs-all tag models the simulator's PACE protocol broadcasts, using
// the binary encodings of internal/wire.
//
// A Node listens on TCP, discovers peers transitively through HELLO
// frames, trains linear SVM tag models from its locally tagged documents,
// broadcasts them with Publish, and answers tag queries locally from the
// ensemble of every model set it has received — so queries keep working
// when every other peer is gone, exactly like the simulated protocol.
//
// The node is built to survive real conditions, not just loopback demos:
//
//   - Every send goes through a retry/timeout/backoff transport — a
//     per-peer dial budget, exponential backoff with jitter derived from
//     runner.DeriveSeed (so tests of the retry schedule are
//     deterministic), and dead-peer quarantine with periodic re-probe.
//     Per-peer counters (sends, retries, failures, frames and bytes in
//     and out) are exposed through Transport.
//   - Read deadlines are refreshed per frame, so a long-lived connection
//     stays alive as long as frames keep arriving.
//   - Self-reported peer addresses are validated and the peer/model
//     tables are capped, so a malicious frame cannot pollute membership
//     or grow state without bound.
//   - Dials never run on a connection-reader goroutine: introductions and
//     gossip relays go through a bounded background task pool, so one
//     unreachable peer cannot stall frame processing.
//
// Beyond peer-trained model sets, nodes gossip whole model generations
// (see Generation and PublishGeneration): an application such as the
// cmd/p2pserve cluster publishes a generation on one node and every
// reachable node — including peers that were dead or partitioned and come
// back — converges on it, installing it through its serving front-end.
package realnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/svm"
	"repro/internal/textproc"
	"repro/internal/vector"
	"repro/internal/wire"
)

// Frame types of the node protocol. Every frame is
// [type byte][length uint32][payload].
const (
	frameHello  = 1 // payload: sender listen addr + known peer addrs
	frameModels = 2 // payload: sender listen addr + a model set
	frameGen    = 3 // payload: a gossiped model generation (seq, origin, set)
)

// DialFunc dials a peer; tests inject failing dialers to simulate
// partitions and unreachable peers without real network faults.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Config configures a Node. Zero values take the documented defaults.
type Config struct {
	// ListenAddr is the TCP address to listen on ("127.0.0.1:0" picks a
	// free port).
	ListenAddr string
	// Seeds are addresses of existing peers to join through.
	Seeds []string
	// C is the linear SVM penalty; default 1.
	C float64
	// Seed drives training and the deterministic backoff jitter streams.
	Seed int64

	// DialTimeout bounds one dial attempt; default 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds writing one frame after a successful dial;
	// default 10s.
	WriteTimeout time.Duration
	// FrameTimeout is the per-frame read deadline on accepted
	// connections, refreshed before every frame: a connection dies only
	// after this long with no complete frame, never merely for being
	// long-lived. Default 30s.
	FrameTimeout time.Duration
	// MaxAttempts is the per-send dial budget (first try included);
	// default 3.
	MaxAttempts int
	// BackoffBase is the delay before the first retry; attempt k waits
	// BackoffBase<<(k-1) plus jitter, capped at BackoffMax. Defaults
	// 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QuarantineAfter is the number of consecutive failed sends after
	// which a peer is quarantined (sends fail fast instead of dialing);
	// default 3. QuarantineFor is how long a quarantine lasts before the
	// next send re-probes the peer; default 5s.
	QuarantineAfter int
	QuarantineFor   time.Duration
	// GossipInterval is the period of the background gossip loop: a node
	// that originated the current model generation rebroadcasts it every
	// interval, which is also what re-probes quarantined peers once their
	// quarantine expires. Default 2s.
	GossipInterval time.Duration
	// MaxPeers caps the membership and model tables against floods of
	// invented self-reported addresses; default 256.
	MaxPeers int

	// MaxSetTags and MaxModelDim bound the structure of an inbound model
	// set (tag count and per-model dense dimension); MaxGenBytes bounds
	// the payload of every inbound frame, checked against the length
	// prefix before any payload buffer is allocated. Together with the
	// finite-weight scan they are the structural half of the Byzantine
	// admission pipeline. Defaults 4096 tags, 1<<22 dims, 32 MiB.
	MaxSetTags  int
	MaxModelDim int
	MaxGenBytes int
	// ProbeDocs, when set, is a small local holdout scoring set: every
	// structurally valid inbound generation is scored against it and
	// rejected when its per-(document, tag) accuracy falls below
	// ProbeFloor (default 0.5 — no better than chance). This is what
	// catches semantically poisoned sets (label flips, scaled weights)
	// whose numbers are individually unremarkable. Nil disables probing.
	ProbeDocs  []TaggedText
	ProbeFloor float64
	// TrustQuarantineFor is the per-origin trust quarantine window: after
	// a rejected publication the origin's generations are refused outright
	// until the window (plus jitter derived from runner.DeriveSeed per
	// origin) expires, and the next publication is the re-probe. Default
	// 5s.
	TrustQuarantineFor time.Duration

	// Dial overrides the dialer; default net.DialTimeout on "tcp".
	Dial DialFunc
	// OnGeneration, when set, is invoked for every accepted gossiped
	// model generation (newer than any seen before). It runs on the
	// background task pool, never on a connection-reader goroutine, and
	// must not call Close.
	OnGeneration func(gen Generation)
}

func (cfg *Config) defaults() {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 30 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.QuarantineFor == 0 {
		cfg.QuarantineFor = 5 * time.Second
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = 2 * time.Second
	}
	if cfg.MaxPeers == 0 {
		cfg.MaxPeers = 256
	}
	if cfg.MaxSetTags == 0 {
		cfg.MaxSetTags = 4096
	}
	if cfg.MaxModelDim == 0 {
		cfg.MaxModelDim = 1 << 22
	}
	if cfg.MaxGenBytes == 0 {
		cfg.MaxGenBytes = 32 << 20
	}
	if cfg.ProbeFloor == 0 {
		cfg.ProbeFloor = 0.5
	}
	if cfg.TrustQuarantineFor == 0 {
		cfg.TrustQuarantineFor = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// newHashedPreprocessor is the canonical feature space every realnet peer
// shares: hashed term-frequency features need no coordinated lexicon, so
// independently running peers agree on what every weight index means.
func newHashedPreprocessor() *textproc.Preprocessor {
	return textproc.NewPreprocessor(nil, textproc.Options{
		Weighting: textproc.TermFrequency, Normalize: true,
		HashDim: 1 << 16,
	})
}

// ModelSet is what a node publishes: per-tag calibrated linear models with
// cross-validated accuracies. The fused score matrix is derived lazily
// (read-only once built, never serialized): Suggest scores all of a set's
// tags in one pass over the document instead of one dot product per tag.
// A ModelSet is immutable once published and must be handled by pointer.
type ModelSet struct {
	Models   map[string]*svm.LinearModel
	Platt    map[string]svm.PlattParams
	Accuracy map[string]float64

	fuseOnce sync.Once
	fused    *svm.FusedLinear
}

// ensureFused builds the fused score matrix on first use; safe for
// concurrent callers, after which the matrix is shared read-only.
func (ms *ModelSet) ensureFused() *svm.FusedLinear {
	ms.fuseOnce.Do(func() {
		if ms.fused == nil {
			ms.fused = svm.NewFusedLinear(ms.Models)
		}
	})
	return ms.fused
}

// toWire converts the set to the wire bank encoding.
func (ms *ModelSet) toWire() map[string]wire.CalibratedModel {
	out := make(map[string]wire.CalibratedModel, len(ms.Models))
	for tag, m := range ms.Models {
		out[tag] = wire.CalibratedModel{Model: m, Platt: ms.Platt[tag], Accuracy: ms.Accuracy[tag]}
	}
	return out
}

// clone deep-copies the set — weights included — so a caller may corrupt
// the copy (the adversary harness does exactly that) without violating
// the original's immutability contract. The clone's fused matrix is
// rebuilt lazily from the copied weights.
func (ms *ModelSet) clone() *ModelSet {
	out := &ModelSet{
		Models:   make(map[string]*svm.LinearModel, len(ms.Models)),
		Platt:    make(map[string]svm.PlattParams, len(ms.Platt)),
		Accuracy: make(map[string]float64, len(ms.Accuracy)),
	}
	for tag, m := range ms.Models {
		cp := &svm.LinearModel{W: append([]float64(nil), m.W...), Bias: m.Bias}
		out.Models[tag] = cp
	}
	for tag, p := range ms.Platt {
		out.Platt[tag] = p
	}
	for tag, a := range ms.Accuracy {
		out.Accuracy[tag] = a
	}
	return out
}

// modelSetFromWire rebuilds a set from its wire bank encoding.
func modelSetFromWire(set map[string]wire.CalibratedModel) *ModelSet {
	ms := &ModelSet{
		Models:   make(map[string]*svm.LinearModel, len(set)),
		Platt:    make(map[string]svm.PlattParams, len(set)),
		Accuracy: make(map[string]float64, len(set)),
	}
	for tag, cm := range set {
		ms.Models[tag] = cm.Model
		ms.Platt[tag] = cm.Platt
		ms.Accuracy[tag] = cm.Accuracy
	}
	ms.ensureFused()
	return ms
}

// TaggedText is one labeled training document for TrainModelSet.
type TaggedText struct {
	Text string
	Tags []string
}

// TrainModelSet trains the per-tag calibrated linear bank realnet peers
// publish, from labeled documents, in the canonical hashed feature space
// every peer shares. The result is deterministic in (docs, c, seed):
// independently training nodes with identical inputs produce identical
// sets, which is what lets a cluster verify byte-identical answers.
func TrainModelSet(docs []TaggedText, c float64, seed int64) (*ModelSet, error) {
	if c == 0 {
		c = 1
	}
	pre := newHashedPreprocessor()
	pdocs := make([]protocol.Doc, 0, len(docs))
	for _, d := range docs {
		if len(d.Tags) == 0 {
			continue
		}
		pdocs = append(pdocs, protocol.Doc{X: pre.Vectorize(d.Text), Tags: d.Tags})
	}
	return trainSet(pdocs, c, seed)
}

// trainSet trains one calibrated model per tag of the documents' universe,
// skipping tags whose training fails (e.g. one-class).
func trainSet(docs []protocol.Doc, c float64, seed int64) (*ModelSet, error) {
	if len(docs) == 0 {
		return nil, errors.New("realnet: no tagged documents to learn from")
	}
	ms := &ModelSet{
		Models:   make(map[string]*svm.LinearModel),
		Platt:    make(map[string]svm.PlattParams),
		Accuracy: make(map[string]float64),
	}
	for _, tag := range protocol.TagUniverse(docs) {
		exs := protocol.BinaryExamples(docs, tag)
		m, err := svm.TrainLinear(exs, svm.LinearOptions{C: c, Seed: seed})
		if err != nil {
			continue
		}
		m = m.Pruned(0.02)
		platt, acc := svm.CalibrateLinearCV(exs, svm.LinearOptions{C: c, Seed: seed}, m, 3)
		ms.Models[tag] = m
		ms.Platt[tag] = platt
		ms.Accuracy[tag] = acc
	}
	if len(ms.Models) == 0 {
		return nil, errors.New("realnet: local documents are one-class; tag more variety first")
	}
	ms.ensureFused()
	return ms, nil
}

// Node is one real-network tagging peer. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	pre   *textproc.Preprocessor
	ln    net.Listener
	tr    *transport
	trust *trustLedger
	probe []probeDoc // vectorized holdout scoring set, immutable after Start

	mu         sync.Mutex
	docs       []protocol.Doc
	peers      map[string]bool // known peer listen addresses
	remote     map[string]*ModelSet
	own        *ModelSet
	cur        *Generation // newest gossiped generation seen or published
	curPayload []byte      // cur's encoded frame, for relays and rebroadcast
	conns      map[net.Conn]bool

	tasks     chan func()
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// taskWorkers bounds concurrent background dials (introductions, relays,
// rebroadcasts); taskQueue bounds how many wait. A saturated queue drops
// work — gossip is periodic and hellos re-trigger on later frames, so a
// drop costs convergence time, never correctness.
const (
	taskWorkers = 2
	taskQueue   = 256
)

// Start launches a node: it listens, joins through the seeds and begins
// accepting model broadcasts.
func Start(cfg Config) (*Node, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen: %w", err)
	}
	n := &Node{
		cfg:    cfg,
		pre:    newHashedPreprocessor(),
		ln:     ln,
		peers:  make(map[string]bool),
		remote: make(map[string]*ModelSet),
		conns:  make(map[net.Conn]bool),
		tasks:  make(chan func(), taskQueue),
		stop:   make(chan struct{}),
	}
	n.tr = newTransport(cfg, n.stop)
	n.trust = newTrustLedger(cfg.Seed, cfg.TrustQuarantineFor, cfg.MaxPeers)
	for _, d := range cfg.ProbeDocs {
		if len(d.Tags) == 0 {
			continue
		}
		has := make(map[string]bool, len(d.Tags))
		for _, tag := range d.Tags {
			has[tag] = true
		}
		n.probe = append(n.probe, probeDoc{x: n.pre.Vectorize(d.Text), has: has})
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for i := 0; i < taskWorkers; i++ {
		n.wg.Add(1)
		go n.taskLoop()
	}
	n.wg.Add(1)
	go n.gossipLoop()
	for _, s := range cfg.Seeds {
		n.addPeer(s)
	}
	// Announce ourselves to the seeds so they learn our address; off the
	// caller's goroutine, since a dead seed costs a full retry budget.
	n.async(func() { n.broadcastHello() })
	return n, nil
}

// Addr returns the node's actual listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the listener, interrupts in-flight backoff sleeps, closes
// accepted connections and waits for every node goroutine to exit.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.stop)
		err = n.ln.Close()
		// Snapshot under the lock, close outside it: Conn.Close can block
		// on the socket, and handler goroutines need n.mu to deregister
		// themselves — holding it here would stall the very goroutines
		// wg.Wait is about to wait for.
		n.mu.Lock()
		conns := make([]net.Conn, 0, len(n.conns))
		for c := range n.conns {
			//dmtvet:allow maprange close order is irrelevant: every conn is closed exactly once and nothing observes the sequence
			conns = append(conns, c)
		}
		n.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		n.wg.Wait()
	})
	return err
}

// Peers returns the currently known peer addresses, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ModelsKnown reports how many peers' model sets this node holds
// (excluding its own).
func (n *Node) ModelsKnown() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.remote)
}

// AddDocument stores a manually tagged document for the next Publish.
func (n *Node) AddDocument(text string, tags ...string) error {
	if len(tags) == 0 {
		return errors.New("realnet: a tagged document needs at least one tag")
	}
	doc := protocol.Doc{X: n.pre.Vectorize(text), Tags: append([]string(nil), tags...)}
	n.mu.Lock()
	n.docs = append(n.docs, doc)
	n.mu.Unlock()
	return nil
}

// PublishSummary reports a broadcast's outcome: how many peers were
// reached, and the final error for each peer that was not (after the full
// retry budget, or immediately for quarantined peers). A partial failure
// is visible here and in the Transport counters, never silent.
type PublishSummary struct {
	Reached int
	Failed  map[string]error
}

// AllReached reports whether every known peer accepted the broadcast.
func (s PublishSummary) AllReached() bool { return len(s.Failed) == 0 }

// Publish trains the local per-tag models and broadcasts them to every
// known peer, retrying per the transport budget. The summary reports the
// outcome per peer; err is non-nil only when nothing could be trained.
func (n *Node) Publish() (PublishSummary, error) {
	n.mu.Lock()
	docs := append([]protocol.Doc(nil), n.docs...)
	n.mu.Unlock()
	ms, err := trainSet(docs, n.cfg.C, n.cfg.Seed)
	if err != nil {
		return PublishSummary{}, err
	}
	n.mu.Lock()
	n.own = ms
	n.mu.Unlock()

	payload, err := encodeModelSet(n.Addr(), ms)
	if err != nil {
		return PublishSummary{}, err
	}
	return n.broadcast(frameModels, payload), nil
}

// broadcast sends one frame to every known peer through the retrying
// transport and reports the per-peer outcome.
func (n *Node) broadcast(typ byte, payload []byte) PublishSummary {
	var sum PublishSummary
	for _, p := range n.Peers() {
		if err := n.tr.send(p, typ, payload); err != nil {
			if sum.Failed == nil {
				sum.Failed = make(map[string]error)
			}
			sum.Failed[p] = err
		} else {
			sum.Reached++
		}
	}
	return sum
}

// Suggest scores every known tag for text using the ensemble of all model
// sets this node holds (its own plus every peer's), weighted by
// cross-validated accuracy over chance, pooled in log-odds space — the
// same vote as the simulated PACE protocol with k = all. Each remote
// set's contribution is additionally scaled by its origin's trust score
// (1.0 for origins that have never misbehaved, so in an all-honest mesh
// the weighting is byte-invisible); sets from presently quarantined
// origins are excluded from the vote entirely.
func (n *Node) Suggest(text string) ([]metrics.ScoredTag, error) {
	x := n.pre.Vectorize(text)
	n.mu.Lock()
	sets := make([]*ModelSet, 0, len(n.remote)+1)
	owns := 0
	if n.own != nil {
		sets = append(sets, n.own)
		owns = 1
	}
	addrs := make([]string, 0, len(n.remote))
	for a := range n.remote {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		sets = append(sets, n.remote[a])
	}
	n.mu.Unlock()
	// Trust lookups happen outside n.mu: the ledger has its own lock and
	// nothing here needs the two views to be atomic with each other.
	now := time.Now()
	weights := make([]float64, owns, len(sets))
	for i := range weights {
		weights[i] = 1 // the node's own set is always fully trusted
	}
	kept := sets[:owns]
	for i, a := range addrs {
		if n.trust.quarantined(a, now) {
			continue
		}
		kept = append(kept, sets[owns+i])
		weights = append(weights, n.trust.weight(a))
	}
	if len(kept) == 0 {
		return nil, errors.New("realnet: no models known yet (publish or wait for peers)")
	}
	out, _ := suggestFromSets(x.Entries(), kept, weights, nil)
	return out, nil
}

// probeDoc is one vectorized holdout document for the admission probe.
type probeDoc struct {
	x   *vector.Sparse
	has map[string]bool
}

// probeAccuracy scores an inbound set against the node's local holdout
// documents: for every (document, tag-in-set) pair, does the calibrated
// model agree with the local labels? Honest sets trained on comparable
// corpora score well above chance; label-flipped or sign-scaled poison
// scores below it. Runs with local scratch only — safe from concurrent
// reader goroutines.
func (n *Node) probeAccuracy(ms *ModelSet) float64 {
	f := ms.ensureFused()
	if f == nil {
		return 0
	}
	correct, total := 0, 0
	var dec []float64
	for _, pd := range n.probe {
		dec = f.ScoreEntriesInto(pd.x.Entries(), dec)
		for i, tag := range f.Tags() {
			predicted := ms.Platt[tag].Prob(dec[i]) >= 0.5
			if predicted == pd.has[tag] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(correct) / float64(total)
}

// suggestFromSets pools per-tag probabilities across sets — accuracy over
// chance as the weight, log-odds space for the vote. weights, when
// non-nil, holds one trust multiplier per set that scales that set's
// contribution (a weight of exactly 1.0 is bit-invisible: x*1.0 == x for
// every finite x, so trust weighting cannot perturb the byte-determinism
// pins of an all-honest ensemble); a weight ≤ 0 excludes the set. entries
// is the query's sorted sparse entries, read synchronously and never
// retained, so streaming callers can pass pooled preprocessing scratch;
// dec is scratch reused across sets (and across calls, when the caller
// keeps it).
func suggestFromSets(entries []vector.Entry, sets []*ModelSet, weights []float64, dec []float64) ([]metrics.ScoredTag, []float64) {
	logitSum := map[string]float64{}
	weightSum := map[string]float64{}
	for si, ms := range sets {
		tw := 1.0
		if weights != nil {
			tw = weights[si]
		}
		if tw <= 0 {
			continue
		}
		f := ms.ensureFused()
		if f == nil {
			continue
		}
		dec = f.ScoreEntriesInto(entries, dec)
		for i, tag := range f.Tags() {
			w := (ms.Accuracy[tag] - 0.5) * tw
			if w <= 0 {
				continue
			}
			p := ms.Platt[tag].Prob(dec[i])
			logitSum[tag] += w * clampLogit(p)
			weightSum[tag] += w
		}
	}
	out := make([]metrics.ScoredTag, 0, len(logitSum))
	for tag, sum := range logitSum {
		out = append(out, metrics.ScoredTag{Tag: tag, Score: protocol.Sigmoid(sum / weightSum[tag])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	return out, dec
}

// AutoTag assigns tags above threshold (falling back to the single best).
func (n *Node) AutoTag(text string, threshold float64, maxTags int) ([]string, error) {
	scores, err := n.Suggest(text)
	if err != nil {
		return nil, err
	}
	return protocol.SelectTags(scores, threshold, maxTags), nil
}

func clampLogit(p float64) float64 {
	const lim = 6
	if p < 1e-9 {
		return -lim
	}
	if p > 1-1e-9 {
		return lim
	}
	l := math.Log(p / (1 - p))
	if l > lim {
		return lim
	}
	if l < -lim {
		return -lim
	}
	return l
}

// ---------------------------------------------------------------------------
// Networking

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.conns[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.mu.Lock()
				delete(n.conns, conn)
				n.mu.Unlock()
				conn.Close()
			}()
			n.handleConn(conn)
		}()
	}
}

func (n *Node) handleConn(conn net.Conn) {
	for {
		// Refresh the read deadline per frame: a connection dies after
		// FrameTimeout of silence, never merely for being long-lived.
		// (Regression: a single deadline set at accept killed an actively
		// gossiping connection 30s in, mid-frame-stream.)
		_ = conn.SetReadDeadline(time.Now().Add(n.cfg.FrameTimeout))
		typ, payload, err := readFrame(conn, n.cfg.MaxGenBytes)
		if err != nil {
			if err != io.EOF {
				n.tr.noteCorrupt()
			}
			return
		}
		n.tr.noteIn(len(payload))
		switch typ {
		case frameHello:
			n.onHello(payload)
		case frameModels:
			n.onModels(payload)
		case frameGen:
			n.onGeneration(payload)
		default:
			n.tr.noteCorrupt()
		}
	}
}

// validAddr reports whether a self-reported peer address is usable: a
// parseable host:port with both parts non-empty, and not this node itself.
// Spoofing cannot be ruled out without authentication, but an invalid or
// empty sender must never enter the membership or model tables.
func (n *Node) validAddr(a string) bool {
	if a == "" || a == n.ln.Addr().String() {
		return false
	}
	host, port, err := net.SplitHostPort(a)
	return err == nil && host != "" && port != ""
}

func (n *Node) onHello(payload []byte) {
	addrs, err := decodeHello(payload)
	if err != nil || len(addrs) == 0 {
		n.tr.noteCorrupt()
		return
	}
	// First address is the sender; the rest are its known peers
	// (transitive discovery). Invalid addresses are dropped and the
	// membership table is capped — a hello cannot grow state unbounded.
	sender := addrs[0]
	var fresh []string
	n.mu.Lock()
	for _, a := range addrs {
		if !n.validAddr(a) || n.peers[a] {
			continue
		}
		if len(n.peers) >= n.cfg.MaxPeers {
			break
		}
		n.peers[a] = true
		fresh = append(fresh, a)
	}
	curPayload := n.curPayload
	n.mu.Unlock()
	if n.validAddr(sender) {
		n.tr.creditIn(sender, len(payload))
	}
	// Introduce ourselves to newly learned peers — never on this reader
	// goroutine: one unreachable "fresh" peer would otherwise stall frame
	// processing for a full dial budget per address. Fresh peers also get
	// the current model generation, so late joiners and restarted peers
	// catch up without waiting for the origin's next rebroadcast.
	for _, a := range fresh {
		a := a
		n.async(func() { n.sendHello(a) })
		if curPayload != nil {
			n.async(func() { _ = n.tr.send(a, frameGen, curPayload) })
		}
	}
}

func (n *Node) onModels(payload []byte) {
	sender, ms, err := decodeModelSet(payload)
	if err != nil {
		n.tr.noteCorrupt()
		return
	}
	// The sender is self-reported: an empty or unparseable address must
	// not pollute the peer and model tables (regression: it was trusted
	// verbatim), and the tables are capped against invented-sender floods.
	if !n.validAddr(sender) {
		n.tr.noteCorrupt()
		return
	}
	// Peer broadcasts pass the same admission pipeline as generations: a
	// quarantined sender is refused outright, a structurally poisoned set
	// demotes and quarantines its sender, and a probe failure (when a
	// holdout set is configured) does the same — so a poisoned set never
	// enters the remote table the Suggest vote reads.
	now := time.Now()
	if !n.trust.admitted(sender, now) {
		n.tr.noteReject(sender)
		return
	}
	if err := validateModelSet(ms, n.cfg.MaxSetTags, n.cfg.MaxModelDim); err != nil {
		n.rejectOrigin(sender, now)
		return
	}
	if len(n.probe) > 0 && n.probeAccuracy(ms) < n.cfg.ProbeFloor {
		n.rejectOrigin(sender, now)
		return
	}
	n.trust.accept(sender, now)
	n.mu.Lock()
	if _, known := n.remote[sender]; !known && len(n.remote) >= n.cfg.MaxPeers {
		n.mu.Unlock()
		return
	}
	n.remote[sender] = ms
	if !n.peers[sender] && len(n.peers) < n.cfg.MaxPeers {
		n.peers[sender] = true
	}
	n.mu.Unlock()
	n.tr.creditIn(sender, len(payload))
}

// rejectOrigin records one failed admission: the origin's trust halves
// and it is quarantined, the rejection is charged to it in the transport
// counters, and any model set it previously parked in the remote table is
// evicted from the vote.
func (n *Node) rejectOrigin(origin string, now time.Time) {
	n.trust.reject(origin, now)
	n.tr.noteReject(origin)
	n.mu.Lock()
	delete(n.remote, origin)
	n.mu.Unlock()
}

func (n *Node) addPeer(addr string) {
	n.mu.Lock()
	if addr != "" && addr != n.ln.Addr().String() && len(n.peers) < n.cfg.MaxPeers {
		n.peers[addr] = true
	}
	n.mu.Unlock()
}

func (n *Node) broadcastHello() PublishSummary {
	var sum PublishSummary
	for _, p := range n.Peers() {
		if err := n.sendHello(p); err != nil {
			if sum.Failed == nil {
				sum.Failed = make(map[string]error)
			}
			sum.Failed[p] = err
		} else {
			sum.Reached++
		}
	}
	return sum
}

func (n *Node) sendHello(to string) error {
	payload := encodeHello(append([]string{n.Addr()}, n.Peers()...))
	return n.tr.send(to, frameHello, payload)
}

// async runs f on the background task pool — work (dials, relays) that
// must not run on a connection-reader goroutine. A saturated pool drops
// the task and counts it in Transport().DroppedTasks.
func (n *Node) async(f func()) {
	select {
	case n.tasks <- f:
	default:
		n.tr.noteDropped()
	}
}

func (n *Node) taskLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case f := <-n.tasks:
			f()
		}
	}
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := [5]byte{typ}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame whose payload may be at most budget bytes. The
// budget is checked against the length prefix, so a peer that claims more
// is refused before the payload buffer is allocated or read.
func readFrame(r io.Reader, budget int) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if int64(size) > int64(budget) {
		return 0, nil, fmt.Errorf("realnet: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// ---------------------------------------------------------------------------
// Payload encodings (built on internal/wire primitives)

func encodeHello(addrs []string) []byte {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, uint16(len(addrs)))
	for _, a := range addrs {
		_ = binary.Write(&buf, binary.LittleEndian, uint16(len(a)))
		buf.WriteString(a)
	}
	return buf.Bytes()
}

func decodeHello(payload []byte) ([]string, error) {
	r := bytes.NewReader(payload)
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) > 10000 {
		return nil, errors.New("realnet: absurd hello")
	}
	out := make([]string, 0, n)
	for i := 0; i < int(n); i++ {
		var l uint16
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			return nil, err
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, nil
}

func encodeModelSet(sender string, ms *ModelSet) ([]byte, error) {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, uint16(len(sender)))
	buf.WriteString(sender)
	if err := wire.WriteModelSet(&buf, ms.toWire()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeModelSet(payload []byte) (string, *ModelSet, error) {
	r := bytes.NewReader(payload)
	var sl uint16
	if err := binary.Read(r, binary.LittleEndian, &sl); err != nil {
		return "", nil, err
	}
	sb := make([]byte, sl)
	if _, err := io.ReadFull(r, sb); err != nil {
		return "", nil, err
	}
	set, err := wire.ReadModelSet(r)
	if err != nil {
		return "", nil, err
	}
	return string(sb), modelSetFromWire(set), nil
}
