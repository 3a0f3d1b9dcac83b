// Cluster mode: N p2pserve processes form a realnet mesh and gossip whole
// model generations instead of each retraining behind /v1/refresh.
//
//	p2pserve -mesh 127.0.0.1:7101 -addr :8473
//	p2pserve -mesh 127.0.0.1:7102 -mesh-join 127.0.0.1:7101 -addr :8474
//
// POST /v1/publish on any node trains a model generation from the shared
// corpus, installs it locally through the serving swap path, and floods it
// over the mesh; every reachable node — including peers that were dead,
// partitioned or quarantined and come back — converges on the same
// generation and installs it with zero dropped requests. GET /v1/stats
// grows a "mesh" section with the per-peer transport counters (sends,
// retries, failures, frames and bytes in/out, quarantine state) and the
// installed generation.
//
// perfbench's publish-under-load workload measures this path end to end
// (see perfbench/README.md); TestClusterChaos pins its correctness.

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	doctagger "repro"
	"repro/internal/realnet"
)

// meshConfig maps the mesh flags onto a realnet node configuration.
func meshConfig(o options) realnet.Config {
	var seeds []string
	if o.meshJoin != "" {
		seeds = strings.Split(o.meshJoin, ",")
	}
	return realnet.Config{ListenAddr: o.mesh, Seeds: seeds, Seed: o.seed}
}

// maxPublishBytes bounds a /v1/publish request body; maxPublishDocs caps
// how many documents one publish may train on.
const (
	maxPublishBytes = 8 << 20
	maxPublishDocs  = 4096
)

// probeSampleSize is how many training documents seed the mesh node's
// holdout probe when the flags don't configure one explicitly.
const probeSampleSize = 32

// probeSample picks a deterministic holdout slice from the training split
// for the Byzantine admission probe: every node samples the same way, so
// the whole cluster agrees on what an inbound generation must get right.
func probeSample(docs []realnet.TaggedText, n int) []realnet.TaggedText {
	if len(docs) <= n {
		return docs
	}
	out := make([]realnet.TaggedText, 0, n)
	step := len(docs) / n
	for i := 0; i < len(docs) && len(out) < n; i += step {
		out = append(out, docs[i])
	}
	return out
}

// startMesh joins the realnet mesh: gossiped model generations install
// into the live pool as they arrive — after passing the realnet admission
// pipeline, which this wires a holdout probe into (sampled from the
// training split unless the config brings its own), so SwapEngines only
// ever installs trust-admitted generations.
func (a *app) startMesh(cfg realnet.Config) error {
	if cfg.ProbeDocs == nil {
		cfg.ProbeDocs = probeSample(a.trainTexts, probeSampleSize)
	}
	cfg.OnGeneration = func(gen realnet.Generation) {
		if a.draining.Load() {
			return
		}
		if err := a.installGeneration(gen); err != nil {
			log.Printf("install gossiped generation %d from %s: %v", gen.Seq, gen.Origin, err)
		} else {
			log.Printf("installed gossiped generation %d from %s", gen.Seq, gen.Origin)
		}
	}
	node, err := realnet.Start(cfg)
	if err != nil {
		return err
	}
	a.mesh = node
	return nil
}

// closeMesh stops the mesh node, if any; safe to call in standalone mode.
func (a *app) closeMesh() {
	if a.mesh != nil {
		_ = a.mesh.Close()
	}
}

// installGeneration swaps a gossiped model generation into the live pool:
// one ensemble engine per shard, all over the same immutable set, through
// the draining SwapEngines path — queries in flight are answered, nothing
// is dropped, and the result cache flushes with the generation. Installs
// are serialized and ordered: a generation older than the newest installed
// one is skipped (gossip can deliver two quick publishes to the task pool
// out of order).
func (a *app) installGeneration(gen realnet.Generation) error {
	a.genMu.Lock()
	defer a.genMu.Unlock()
	if last := a.lastGen; last != nil &&
		(gen.Seq < last.Seq || (gen.Seq == last.Seq && gen.Origin <= last.Origin)) {
		return nil
	}
	engines := make([]doctagger.Engine, a.o.shards)
	for i := range engines {
		e, err := realnet.NewEnsemble(a.o.threshold, a.o.maxTags, gen.Set)
		if err != nil {
			return err
		}
		engines[i] = e
	}
	//dmtvet:allow lockdiscipline genMu serializes gossip-driven generation installs; holding it across the drain is what makes installs ordered
	if err := a.pool.SwapEngines(engines...); err != nil {
		return err
	}
	a.lastGen = &gen
	return nil
}

// trainGeneration builds the model set a /v1/publish gossips: per-tag
// calibrated linear models over docs (the corpus training split when docs
// is nil). Deterministic in (docs, seed), so any node publishing from the
// same inputs produces the same bytes.
func (a *app) trainGeneration(docs []realnet.TaggedText) (*realnet.ModelSet, error) {
	if docs == nil {
		docs = a.trainTexts
	}
	if len(docs) == 0 {
		return nil, errors.New("no training texts")
	}
	return realnet.TrainModelSet(docs, 1, a.o.seed)
}

// publishDoc is one labeled training document in a /v1/publish body.
type publishDoc struct {
	Text string   `json:"text"`
	Tags []string `json:"tags"`
}

// parsePublishDocs validates an optional /v1/publish request body. An
// empty body means "train on the configured corpus" (nil, nil); a JSON
// body must carry a non-empty, bounded document set with per-document
// text and at least one tag — anything else is a client error, reported
// before any training runs on it.
func parsePublishDocs(r *http.Request) ([]realnet.TaggedText, error) {
	var req struct {
		Docs []publishDoc `json:"docs"`
	}
	err := json.NewDecoder(r.Body).Decode(&req)
	if errors.Is(err, io.EOF) {
		return nil, nil // no body: use the configured corpus
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Docs) == 0 {
		return nil, errors.New("empty document set")
	}
	if len(req.Docs) > maxPublishDocs {
		return nil, fmt.Errorf("%d documents exceed the cap of %d", len(req.Docs), maxPublishDocs)
	}
	docs := make([]realnet.TaggedText, len(req.Docs))
	for i, d := range req.Docs {
		if strings.TrimSpace(d.Text) == "" {
			return nil, fmt.Errorf("document %d has empty text", i)
		}
		if len(d.Tags) == 0 {
			return nil, fmt.Errorf("document %d has no tags", i)
		}
		for _, tag := range d.Tags {
			if strings.TrimSpace(tag) == "" {
				return nil, fmt.Errorf("document %d has an empty tag", i)
			}
		}
		docs[i] = realnet.TaggedText{Text: d.Text, Tags: d.Tags}
	}
	return docs, nil
}

// handlePublish is POST /v1/publish: validate the (optional) document
// payload, train a generation, install it locally, flood it to the mesh,
// and report the per-peer outcome.
func (a *app) handlePublish(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxPublishBytes)
	docs, err := parsePublishDocs(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !a.refreshing.CompareAndSwap(false, true) {
		httpError(w, http.StatusTooManyRequests, errors.New("a publish is already in progress"))
		return
	}
	defer a.refreshing.Store(false)
	start := time.Now()
	set, err := a.trainGeneration(docs)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("untrainable document set: %w", err))
		return
	}
	gen, sum, err := a.mesh.PublishGeneration(set)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// The publisher installs from the return value (OnGeneration fires
	// only for remotely received generations).
	if err := a.installGeneration(gen); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	failed := map[string]string{}
	for peer, err := range sum.Failed {
		failed[peer] = err.Error()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq":     gen.Seq,
		"origin":  gen.Origin,
		"reached": sum.Reached,
		"failed":  failed,
		"seconds": time.Since(start).Seconds(),
	})
}

// meshStatus is the "mesh" section of /v1/stats in cluster mode.
type meshStatus struct {
	Addr       string                 `json:"addr"`
	Peers      []string               `json:"peers"`
	Transport  realnet.TransportStats `json:"transport"`
	Trust      realnet.TrustStats     `json:"trust"`
	Generation *installedGeneration   `json:"generation,omitempty"`
}

// installedGeneration identifies the gossiped generation the pool serves.
type installedGeneration struct {
	Seq    uint64 `json:"seq"`
	Origin string `json:"origin"`
	Tags   int    `json:"tags"`
}

// statsResponse embeds the serving counters (keeping the standalone JSON
// shape byte-compatible) and adds the mesh section in cluster mode.
type statsResponse struct {
	doctagger.ServerStats
	Mesh *meshStatus `json:"mesh,omitempty"`
}

func (a *app) statsPayload() statsResponse {
	resp := statsResponse{ServerStats: a.pool.Stats()}
	if a.mesh == nil {
		return resp
	}
	ms := &meshStatus{
		Addr:      a.mesh.Addr(),
		Peers:     a.mesh.Peers(),
		Transport: a.mesh.Transport(),
		Trust:     a.mesh.Trust(),
	}
	a.genMu.Lock()
	if g := a.lastGen; g != nil {
		ms.Generation = &installedGeneration{Seq: g.Seq, Origin: g.Origin, Tags: len(g.Set.Models)}
	}
	a.genMu.Unlock()
	resp.Mesh = ms
	return resp
}
