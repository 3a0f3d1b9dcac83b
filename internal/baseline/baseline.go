// Package baseline implements the two comparison points of every
// experiment: a centralized tagger (all peers ship their labeled documents
// to one coordinator that trains global models and answers every query —
// the architecture the paper argues against) and a local-only tagger (each
// peer learns from its own documents alone — the floor that collaboration
// must beat).
package baseline

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/svm"
	"repro/internal/vector"
)

// CentralizedConfig tunes the centralized baseline.
type CentralizedConfig struct {
	// Coordinator is the node all data and queries flow to.
	Coordinator simnet.NodeID
	// C is the linear SVM penalty; default 1.
	C float64
	// QueryTimeout is unused by the simulator's lossless default paths but
	// kept for symmetry; queries to a dead coordinator fail via lost
	// messages and the caller's run horizon.
	Seed int64
	// Parallel is the worker count for the coordinator's global training:
	// the one-vs-all models are independent per tag, so they train
	// concurrently. 1 means serial; other values <= 0 mean GOMAXPROCS.
	// The result is bit-identical at any worker count.
	Parallel int
}

// Centralized is the centralized collaborative tagger.
type Centralized struct {
	cfg    CentralizedConfig
	net    *simnet.Network
	order  []simnet.NodeID
	docs   map[simnet.NodeID][]protocol.Doc
	pool   []protocol.Doc // coordinator's accumulated training data
	dirty  bool           // pool changed since last training
	models map[string]*svm.LinearModel
	platt  map[string]svm.PlattParams
	// fused packs the one-vs-all bank into a single inverted score matrix
	// so a query scores every tag in one pass over its features (rebuilt
	// by retrainIfDirty); scoreBuf is its reused output buffer — safe
	// without a lock because all scoring happens either in the
	// coordinator's handler (serial per node under the sharded simulator)
	// or in Predict while the simulated clock is stopped.
	fused    *svm.FusedLinear
	scoreBuf []float64
	// scored is the reused answer slice of coordinator-origin queries:
	// Predict's contract says cb consumes it synchronously.
	scored []metrics.ScoredTag
	// pending queries awaiting coordinator answers, bucketed by origin so
	// an answer handled at its origin touches only that origin's bucket
	// (required by the sharded simulator).
	pending map[simnet.NodeID]map[uint64]func([]metrics.ScoredTag, bool)
	nextReq map[simnet.NodeID]uint64
}

type uploadMsg struct{ docs []protocol.Doc }

type centralQuery struct {
	x      *vector.Sparse
	origin simnet.NodeID
	req    uint64
}

type centralAnswer struct {
	req    uint64
	scores map[string]float64
}

// NewCentralized registers handlers for ids on net.
func NewCentralized(net *simnet.Network, ids []simnet.NodeID, cfg CentralizedConfig) *Centralized {
	if cfg.C == 0 {
		cfg.C = 1
	}
	c := &Centralized{
		cfg:     cfg,
		net:     net,
		docs:    make(map[simnet.NodeID][]protocol.Doc),
		pending: make(map[simnet.NodeID]map[uint64]func([]metrics.ScoredTag, bool), len(ids)),
		nextReq: make(map[simnet.NodeID]uint64, len(ids)),
	}
	c.order = append(c.order, ids...)
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	for _, id := range c.order {
		c.pending[id] = make(map[uint64]func([]metrics.ScoredTag, bool))
		nodeID := id
		net.AddNode(id, simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			c.handle(nodeID, m)
		}))
	}
	return c
}

// SetDocs installs a peer's local training documents (before Fit).
func (c *Centralized) SetDocs(id simnet.NodeID, docs []protocol.Doc) { c.docs[id] = docs }

// Name implements protocol.Classifier.
func (c *Centralized) Name() string { return "Centralized" }

// Fit ships every peer's labeled documents to the coordinator (this is the
// data-centralization cost the paper criticizes) and trains the global
// models when the uploads arrive.
func (c *Centralized) Fit() {
	for _, id := range c.order {
		if !c.net.Alive(id) {
			continue
		}
		docs := c.docs[id]
		if len(docs) == 0 {
			continue
		}
		if id == c.cfg.Coordinator {
			c.pool = append(c.pool, docs...)
			c.dirty = true
			continue
		}
		size := 16
		for _, d := range docs {
			size += d.X.WireSize() + 8*len(d.Tags)
		}
		c.net.Send(simnet.Message{
			From: id, To: c.cfg.Coordinator, Kind: "central.upload", Size: size,
			Payload: uploadMsg{docs: docs},
		})
	}
}

func (c *Centralized) handle(self simnet.NodeID, m simnet.Message) {
	switch m.Kind {
	case "central.upload":
		if self != c.cfg.Coordinator {
			return
		}
		c.pool = append(c.pool, m.Payload.(uploadMsg).docs...)
		c.dirty = true
	case "central.query":
		if self != c.cfg.Coordinator {
			return
		}
		c.retrainIfDirty()
		q := m.Payload.(centralQuery)
		scores := make(map[string]float64, len(c.models))
		if c.fused != nil {
			c.scoreBuf = c.fused.ScoreEntriesInto(q.x.Entries(), c.scoreBuf)
			for i, tag := range c.fused.Tags() {
				scores[tag] = c.platt[tag].Prob(c.scoreBuf[i])
			}
		}
		c.net.Send(simnet.Message{
			From: self, To: q.origin, Kind: "central.answer",
			Size:    16 + 12*len(scores),
			Payload: centralAnswer{req: q.req, scores: scores},
		})
	case "central.answer":
		a := m.Payload.(centralAnswer)
		cb, ok := c.pending[self][a.req]
		if !ok {
			return
		}
		delete(c.pending[self], a.req)
		out := make([]metrics.ScoredTag, 0, len(a.scores))
		for tag, sc := range a.scores {
			out = append(out, metrics.ScoredTag{Tag: tag, Score: sc})
		}
		// Canonical tag order: every downstream consumer re-sorts with a
		// full tie-break, but the callback contract itself should not
		// leak map iteration order (dmtvet/maprange).
		sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
		cb(out, true)
	}
}

// retrainIfDirty rebuilds the global one-vs-all models from the
// accumulated pool when uploads arrived since the last training run. Real
// systems would train incrementally; deferring one batch retrain to the
// first query is equivalent under the simulator (which charges no CPU
// time) and avoids quadratic retraining during Fit.
func (c *Centralized) retrainIfDirty() {
	if !c.dirty {
		return
	}
	c.dirty = false
	// Each tag is an independent one-vs-all problem over the shared
	// read-only pool, so the tags train concurrently; results install
	// serially in sorted-tag order, identical at any worker count.
	tags := protocol.TagUniverse(c.pool)
	type trained struct {
		model *svm.LinearModel
		platt svm.PlattParams
	}
	models, _ := runner.Map(len(tags), c.cfg.Parallel, func(i int) (trained, error) {
		exs := protocol.BinaryExamples(c.pool, tags[i])
		m, err := svm.TrainLinear(exs, svm.LinearOptions{C: c.cfg.C, Seed: c.cfg.Seed})
		if err != nil {
			return trained{}, nil
		}
		platt, _ := svm.CalibrateLinearCV(exs,
			svm.LinearOptions{C: c.cfg.C, Seed: c.cfg.Seed}, m, 3)
		return trained{model: m, platt: platt}, nil
	})
	c.models = make(map[string]*svm.LinearModel, len(tags))
	c.platt = make(map[string]svm.PlattParams, len(tags))
	for i, tag := range tags {
		if models[i].model == nil {
			continue
		}
		c.models[tag] = models[i].model
		c.platt[tag] = models[i].platt
	}
	c.fused = svm.NewFusedLinear(c.models)
}

// Predict implements protocol.Classifier: the vector travels to the
// coordinator and the scored answer returns. When the coordinator is down
// the query is lost — the single point of failure the paper highlights —
// and cb fires with ok=false after the run drains (via a scheduled check).
// Coordinator-origin queries score synchronously into reused scratch; any
// other origin outlives this call in a network payload, so x is cloned.
func (c *Centralized) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	if !c.net.Alive(from) || !c.net.Alive(c.cfg.Coordinator) {
		cb(nil, false)
		return
	}
	if from == c.cfg.Coordinator {
		c.retrainIfDirty()
		c.scored = c.scored[:0]
		if c.fused != nil {
			c.scoreBuf = c.fused.ScoreEntriesInto(x.Entries(), c.scoreBuf)
			for i, tag := range c.fused.Tags() {
				c.scored = append(c.scored, metrics.ScoredTag{Tag: tag, Score: c.platt[tag].Prob(c.scoreBuf[i])})
			}
		}
		cb(c.scored, true)
		return
	}
	req := c.nextReq[from]
	c.nextReq[from]++
	c.pending[from][req] = cb
	c.net.Send(simnet.Message{
		From: from, To: c.cfg.Coordinator, Kind: "central.query",
		Size:    x.WireSize() + 16,
		Payload: centralQuery{x: x.Clone(), origin: from, req: req},
	})
}

// Refine implements protocol.Refiner by uploading the corrected document.
func (c *Centralized) Refine(peer simnet.NodeID, doc protocol.Doc) {
	c.docs[peer] = append(c.docs[peer], doc)
	if !c.net.Alive(peer) || !c.net.Alive(c.cfg.Coordinator) {
		return
	}
	if peer == c.cfg.Coordinator {
		c.pool = append(c.pool, doc)
		c.dirty = true
		return
	}
	c.net.Send(simnet.Message{
		From: peer, To: c.cfg.Coordinator, Kind: "central.upload",
		Size:    doc.X.WireSize() + 8*len(doc.Tags) + 16,
		Payload: uploadMsg{docs: []protocol.Doc{doc}},
	})
}

// ---------------------------------------------------------------------------

// Local is the no-collaboration floor: every peer trains only on its own
// documents and predicts locally. It sends no messages at all.
type Local struct {
	// Parallel is the worker count for Fit: peers train independently
	// from their own shards and fan out over it. Set it before Fit; 1
	// means serial, other values <= 0 mean GOMAXPROCS. The result is
	// bit-identical at any worker count.
	Parallel int

	net    *simnet.Network
	models map[simnet.NodeID]map[string]*svm.LinearModel
	platt  map[simnet.NodeID]map[string]svm.PlattParams
	docs   map[simnet.NodeID][]protocol.Doc
	c      float64
	seed   int64
	// fused holds each peer's bank as an inverted score matrix (rebuilt
	// with the models on Fit/Refine); scoreBuf is the reused scoring
	// buffer — Predict runs serially per System, like every protocol here.
	fused    map[simnet.NodeID]*svm.FusedLinear
	scoreBuf []float64
	// scored is Predict's reused answer slice (consumed synchronously by
	// cb per the protocol.Classifier contract).
	scored []metrics.ScoredTag
}

// NewLocal registers no-op handlers for ids on net (so the same node set
// works across protocols).
func NewLocal(net *simnet.Network, ids []simnet.NodeID, c float64, seed int64) *Local {
	if c == 0 {
		c = 1
	}
	l := &Local{
		net:    net,
		models: make(map[simnet.NodeID]map[string]*svm.LinearModel),
		platt:  make(map[simnet.NodeID]map[string]svm.PlattParams),
		docs:   make(map[simnet.NodeID][]protocol.Doc),
		c:      c,
		seed:   seed,
		fused:  make(map[simnet.NodeID]*svm.FusedLinear),
	}
	for _, id := range ids {
		net.AddNode(id, simnet.HandlerFunc(func(*simnet.Network, simnet.Message) {}))
	}
	return l
}

// SetDocs installs a peer's local training documents (before Fit).
func (l *Local) SetDocs(id simnet.NodeID, docs []protocol.Doc) { l.docs[id] = docs }

// Name implements protocol.Classifier.
func (l *Local) Name() string { return "Local-only" }

// Fit trains every peer's private models concurrently (each peer reads
// only its own shard and the trained maps install serially afterwards, so
// any worker count yields the same models). No traffic.
func (l *Local) Fit() {
	ids := make([]simnet.NodeID, 0, len(l.docs))
	for id := range l.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type peerModels struct {
		models map[string]*svm.LinearModel
		platt  map[string]svm.PlattParams
	}
	trained, _ := runner.Map(len(ids), l.Parallel, func(i int) (peerModels, error) {
		ms, ps := l.trainPeer(ids[i])
		return peerModels{models: ms, platt: ps}, nil
	})
	for i, id := range ids {
		l.models[id] = trained[i].models
		l.platt[id] = trained[i].platt
		l.fused[id] = svm.NewFusedLinear(trained[i].models)
	}
}

func (l *Local) trainPeer(id simnet.NodeID) (map[string]*svm.LinearModel, map[string]svm.PlattParams) {
	docs := l.docs[id]
	ms := make(map[string]*svm.LinearModel)
	ps := make(map[string]svm.PlattParams)
	for _, tag := range protocol.TagUniverse(docs) {
		exs := protocol.BinaryExamples(docs, tag)
		m, err := svm.TrainLinear(exs, svm.LinearOptions{C: l.c, Seed: l.seed + int64(id)})
		if err != nil {
			continue
		}
		ms[tag] = m
		ps[tag], _ = svm.CalibrateLinearCV(exs,
			svm.LinearOptions{C: l.c, Seed: l.seed + int64(id)}, m, 3)
	}
	return ms, ps
}

// Predict implements protocol.Classifier, synchronously and locally, into
// reused scratch.
func (l *Local) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	if !l.net.Alive(from) {
		cb(nil, false)
		return
	}
	fu := l.fused[from]
	if fu == nil {
		cb(nil, false)
		return
	}
	l.scoreBuf = fu.ScoreEntriesInto(x.Entries(), l.scoreBuf)
	l.scored = l.scored[:0]
	platt := l.platt[from]
	for i, tag := range fu.Tags() {
		l.scored = append(l.scored, metrics.ScoredTag{Tag: tag, Score: platt[tag].Prob(l.scoreBuf[i])})
	}
	cb(l.scored, true)
}

// Refine implements protocol.Refiner locally.
func (l *Local) Refine(peer simnet.NodeID, doc protocol.Doc) {
	l.docs[peer] = append(l.docs[peer], doc)
	l.models[peer], l.platt[peer] = l.trainPeer(peer)
	l.fused[peer] = svm.NewFusedLinear(l.models[peer])
}
