package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	doctagger "repro"
	"repro/internal/realnet"
	"repro/internal/svm"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// profileDocs caps how many of the workload's documents the in-process
// layer profiles replay.
const profileDocs = 1500

// layerInputs is what the traced in-process profiles run on.
type layerInputs struct {
	docs     []string // the workload's documents, in the order sent
	engine   string   // "cempar", "local" or "ensemble": the workload's engine
	batchDoc int      // documents per TagBatch call; 0 drives Tag
	// Filled in by profileLayers: the servers' training split and the
	// ensemble a published generation installs.
	train []doctagger.CorpusDoc
	ens   *realnet.Ensemble
	set   *realnet.ModelSet
}

// profileLayers times calls into each module's public functions on the
// workload's documents, one root span per document with a child span per
// layer, and sets the per-layer metrics.
func profileLayers(rc *runCtx, in layerInputs) error {
	var err error
	if in.train, err = serverTrainSplit(); err != nil {
		return err
	}
	if in.ens, in.set, err = newEnsemble(in.train); err != nil {
		return err
	}
	docs := in.docs
	if len(docs) > profileDocs {
		docs = docs[:profileDocs]
	}
	if len(docs) == 0 {
		return fmt.Errorf("no documents to profile")
	}
	rc.setLayer("textproc.repeat_token_ratio", "ratio", repeatTokenRatio(in.docs))

	cempar, err := newTagger("cempar", in.train)
	if err != nil {
		return err
	}
	local, err := newTagger("local", in.train)
	if err != nil {
		return err
	}
	pre := textproc.NewPreprocessor(nil, textproc.Options{Weighting: textproc.TermFrequency, Normalize: true})
	hashed := textproc.NewPreprocessor(nil, textproc.Options{Weighting: textproc.TermFrequency, Normalize: true, HashDim: 1 << 16})
	fused := svm.NewFusedLinear(in.set.Models)
	entries := make([][]vector.Entry, len(docs))
	for i, d := range docs {
		hashed.VectorizeInto(d, func(es []vector.Entry) { entries[i] = append([]vector.Entry(nil), es...) })
	}

	// One untimed pass warms the lexicons, pools and caches.
	var dst []float64
	one := []string{""}
	for i, d := range docs {
		textproc.Tokenize(d)
		pre.Vectorize(d)
		dst = fused.ScoreEntriesInto(entries[i], dst)
		if _, err := cempar.AutoTag(d); err != nil {
			return fmt.Errorf("cempar AutoTag: %w", err)
		}
		if _, err := local.AutoTag(d); err != nil {
			return fmt.Errorf("local AutoTag: %w", err)
		}
		one[0] = d
		if _, err := in.ens.AutoTagBatch(one); err != nil {
			return err
		}
	}

	tr := rc.tr
	var tokens, stemmed int
	var tokNs, stemNs, vecNs, scoreNs, ensNs float64
	var cemparUs, localUs durations
	lap := func(name string, root int64, f func()) float64 {
		s := time.Now()
		f()
		e := time.Now()
		tr.child(name, root, root, s, e)
		return float64(e.Sub(s))
	}
	for i, d := range docs {
		root := tr.reserve()
		start := time.Now()
		var toks []string
		tokNs += lap("textproc.tokenize", root, func() { toks = textproc.Tokenize(d) })
		tokens += len(toks)
		stemNs += lap("textproc.stem", root, func() {
			for _, tok := range toks {
				textproc.Stem(tok)
			}
		})
		stemmed += len(toks)
		vecNs += lap("textproc.vectorize", root, func() { pre.Vectorize(d) })
		scoreNs += lap("svm.score", root, func() { dst = fused.ScoreEntriesInto(entries[i], dst) })
		cemparUs = append(cemparUs, lap("tagger.cempar.autotag", root, func() { _, _ = cempar.AutoTag(d) })/1e3)
		localUs = append(localUs, lap("tagger.local.autotag", root, func() { _, _ = local.AutoTag(d) })/1e3)
		one[0] = d
		ensNs += lap("realnet.ensemble", root, func() { _, _ = in.ens.AutoTagBatch(one) })
		tr.finish(root, "profile.doc", start, time.Now())
	}
	n := float64(len(docs))
	rc.setLayer("textproc.tokenize_ns_per_doc", "ns", tokNs/n)
	rc.setLayer("textproc.stem_ns_per_token", "ns", stemNs/float64(max(stemmed, 1)))
	rc.setLayer("textproc.vectorize_ns_per_doc", "ns", vecNs/n)
	rc.setLayer("textproc.tokens_per_doc", "count", float64(tokens)/n)
	rc.setLayer("svm.score_ns_per_doc", "ns", scoreNs/n)
	rc.setLayer("tagger.cempar.autotag_p50_us", "us", cemparUs.sorted().pct(0.5))
	rc.setLayer("tagger.local.autotag_p50_us", "us", localUs.sorted().pct(0.5))
	rc.setLayer("realnet.ensemble_us_per_doc", "us", ensNs/n/1e3)
	rc.setLayer("tagger.cempar.allocs_per_doc", "count", allocsPerDoc(cempar, docs))
	rc.setLayer("tagger.local.allocs_per_doc", "count", allocsPerDoc(local, docs))

	if err := profileServing(rc, in, docs); err != nil {
		return err
	}
	return profileRealnet(rc, in)
}

// repeatTokenRatio is the share of tokens already seen earlier in the
// sequence: the Zipf property a stemming or feature-id memo exploits.
func repeatTokenRatio(docs []string) float64 {
	seen := map[string]bool{}
	var total, repeat int
	for _, d := range docs {
		for _, tok := range textproc.Tokenize(d) {
			total++
			if seen[tok] {
				repeat++
			}
			seen[tok] = true
		}
	}
	if total == 0 {
		return 0
	}
	return float64(repeat) / float64(total)
}

// allocsPerDoc is the mean allocation count of AutoTag over docs, after a
// warm pass, measured the way testing.AllocsPerRun does.
func allocsPerDoc(tg *doctagger.Tagger, docs []string) float64 {
	k := 0
	return testing.AllocsPerRun(len(docs), func() {
		_, _ = tg.AutoTag(docs[k%len(docs)])
		k++
	})
}

// tracedEngine wraps an engine with a span per AutoTagBatch call, charged
// to the root span of every request in the batch.
type tracedEngine struct {
	inner doctagger.Engine
	tr    *tracer
	roots *sync.Map // text -> root span id
	mu    sync.Mutex
	busy  time.Duration
	docs  int
}

func (e *tracedEngine) AutoTagBatch(texts []string) ([][]string, error) {
	start := time.Now()
	out, err := e.inner.AutoTagBatch(texts)
	end := time.Now()
	for _, t := range texts {
		if id, ok := e.roots.Load(t); ok {
			e.tr.child("serving.engine_batch", id.(int64), id.(int64), start, end)
		}
	}
	e.mu.Lock()
	e.busy += end.Sub(start)
	e.docs += len(texts)
	e.mu.Unlock()
	return out, err
}

// profileServing drives an in-process doctagger.Server over the
// workload's engine kind from two callers: first to time each engine
// AutoTagBatch call, then to time SwapEngines while the load continues.
func profileServing(rc *runCtx, in layerInputs, docs []string) error {
	roots := &sync.Map{}
	mk := func() ([]doctagger.Engine, []*tracedEngine, error) {
		var es []doctagger.Engine
		var ts []*tracedEngine
		for i := 0; i < srvShards; i++ {
			var inner doctagger.Engine
			switch in.engine {
			case "ensemble":
				e, err := realnet.NewEnsemble(srvThreshold, srvMaxTags, in.set)
				if err != nil {
					return nil, nil, err
				}
				inner = e
			default:
				tg, err := newTagger(in.engine, in.train)
				if err != nil {
					return nil, nil, err
				}
				inner = tg
			}
			te := &tracedEngine{inner: inner, tr: rc.tr, roots: roots}
			es = append(es, te)
			ts = append(ts, te)
		}
		return es, ts, nil
	}
	genA, tracedA, err := mk()
	if err != nil {
		return err
	}
	genB, _, err := mk()
	if err != nil {
		return err
	}
	srv, err := doctagger.NewEngineServer(doctagger.ServerConfig{MaxBatch: 32, MaxDelay: 2 * time.Millisecond}, genA...)
	if err != nil {
		return err
	}
	defer srv.Close()

	// drive sends docs from two callers, once when stop is nil, else
	// until stop closes; each caller walks its own half so no text is in
	// flight twice.
	drive := func(stop <-chan struct{}) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = driveCaller(rc.tr, srv, roots, docs, c, in.batchDoc, stop)
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := drive(nil); err != nil {
		return err
	}
	var busy time.Duration
	var n int
	for _, te := range tracedA {
		te.mu.Lock()
		busy += te.busy
		n += te.docs
		te.mu.Unlock()
	}
	rc.setLayer("serving.batch_exec_us_per_doc", "us", float64(busy)/1e3/float64(max(n, 1)))

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- drive(stop) }()
	var swaps durations
	gens := [2][]doctagger.Engine{genB, genA}
	for k := 0; k < 8; k++ {
		time.Sleep(20 * time.Millisecond)
		s := time.Now()
		err := srv.SwapEngines(gens[k%2]...)
		e := time.Now()
		if err != nil {
			close(stop)
			<-done
			return fmt.Errorf("SwapEngines: %w", err)
		}
		rc.tr.root("serving.swap", s, e)
		swaps = append(swaps, ms(e.Sub(s)))
	}
	close(stop)
	if err := <-done; err != nil {
		return err
	}
	rc.setLayer("serving.swap_ms", "ms", swaps.sorted().pct(0.5))
	return nil
}

// driveCaller is one caller of profileServing: documents c, c+2, c+4, ...
// (or batches of them) once when stop is nil, else round and round until
// stop closes.
func driveCaller(tr *tracer, srv *doctagger.Server, roots *sync.Map, docs []string, c, batch int, stop <-chan struct{}) error {
	ctx := context.Background()
	step := 2 * max(batch, 1)
	for {
		for i := c * max(batch, 1); i < len(docs); i += step {
			select {
			case <-stop:
				return nil
			default:
			}
			root := tr.reserve()
			start := time.Now()
			var err error
			if batch > 0 {
				part := docs[i:min(i+batch, len(docs))]
				for _, d := range part {
					roots.Store(d, root)
				}
				_, err = srv.TagBatch(ctx, part)
			} else {
				roots.Store(docs[i], root)
				_, err = srv.Tag(ctx, docs[i])
			}
			tr.finish(root, "serving.request", start, time.Now())
			if err != nil {
				return err
			}
		}
		if stop == nil {
			return nil
		}
	}
}

// probeSample mirrors p2pserve's holdout probe: every step-th training
// document, 32 at most, so in-process admission costs what a node's does.
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

// profileRealnet times TrainModelSet, and PublishGeneration between two
// in-process mesh nodes until the receiver's OnGeneration fires.
func profileRealnet(rc *runCtx, in layerInputs) error {
	train := taggedTexts(in.train)
	var trains durations
	for k := 0; k < 3; k++ {
		s := time.Now()
		if _, err := realnet.TrainModelSet(train, 1, srvSeed); err != nil {
			return err
		}
		e := time.Now()
		rc.tr.root("realnet.train", s, e)
		trains = append(trains, ms(e.Sub(s)))
	}
	rc.setLayer("realnet.train_ms", "ms", trains.sorted().pct(0.5))

	const publishes = 6
	// Sized to the publishes, so the receiver's callback never blocks.
	got := make(chan uint64, publishes+4)
	probe := probeSample(train, 32)
	n0, err := realnet.Start(realnet.Config{Seed: srvSeed, GossipInterval: time.Hour, ProbeDocs: probe})
	if err != nil {
		return err
	}
	defer n0.Close()
	n1, err := realnet.Start(realnet.Config{
		Seed: srvSeed + 1, Seeds: []string{n0.Addr()}, GossipInterval: time.Hour, ProbeDocs: probe,
		OnGeneration: func(g realnet.Generation) {
			select {
			case got <- g.Seq:
			default:
			}
		},
	})
	if err != nil {
		return err
	}
	defer n1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for len(n0.Peers()) == 0 || len(n1.Peers()) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process mesh did not form")
		}
		time.Sleep(time.Millisecond)
	}
	var pubs durations
	bytesBefore := n1.Transport().BytesIn
	for k := 0; k < publishes; k++ {
		s := time.Now()
		gen, _, err := n0.PublishGeneration(in.set)
		if err != nil {
			return err
		}
		if err := awaitSeq(got, gen.Seq); err != nil {
			return err
		}
		e := time.Now()
		rc.tr.root("realnet.publish", s, e)
		pubs = append(pubs, ms(e.Sub(s)))
	}
	tin := n1.Transport()
	rc.setLayer("realnet.publish_ms", "ms", pubs.sorted().pct(0.5))
	rc.setLayer("realnet.bytes_per_publish", "B", float64(tin.BytesIn-bytesBefore)/publishes)
	rejects := tin.Rejects + n0.Transport().Rejects
	rc.setLayer("realnet.rejects", "count", float64(rejects)+rc.layer["realnet.rejects"].Value)
	return nil
}

func awaitSeq(got <-chan uint64, seq uint64) error {
	timeout := time.After(10 * time.Second)
	for {
		select {
		case s := <-got:
			if s >= seq {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("generation %d never reached the receiver", seq)
		}
	}
}
