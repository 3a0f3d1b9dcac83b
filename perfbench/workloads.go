package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// workloads maps --workload names to their drivers.
var workloads = map[string]func(*runCtx) error{
	"interactive-cempar": interactive,
	"bulk-local":         bulk,
	"publish-under-load": publish,
}

// Fixed load settings. Rates stay below the knee of the parent commit on
// a 2-core machine, so they measure latency, not overload.
const (
	lowRate     = 200.0 // interactive `low` rate, requests/s
	highRate    = 400.0 // interactive `high` rate, requests/s
	ladderStep  = 1.25  // geometric ratio between ladder rates
	p99LimitMs  = 50.0  // latency limit the ladder's capacity must meet
	bulkDocs    = 200   // documents per bulk request
	bulkParts   = 3     // corpus documents concatenated into one long document
	churnRate   = 200.0 // publish-under-load tag rate on node 1, requests/s
	hotShare    = 0.95  // share of churn requests drawn from the hot set
	hotSetSize  = 8
	publishGap  = 300 * time.Millisecond // interval between publishes
	warmPublish = 2                      // discarded warm-up publishes
)

// setups is how many times a run launches its servers, half before the
// load and half after it, so the median, setup_s, samples the machine at
// both ends of the run.
func (rc *runCtx) setups() int {
	if rc.o.smoke {
		return 2
	}
	return 20
}

// span scales a share of the run's measured seconds.
func (rc *runCtx) span(share float64) time.Duration {
	return time.Duration(share * float64(rc.o.seconds) * float64(time.Second))
}

// cluster is the set of p2pserve processes of one run.
type cluster struct {
	nodes []*node
	rss   *rssSampler // set once the run keeps this cluster
}

func (cl *cluster) stop() {
	if cl.rss != nil {
		cl.rss.halt()
	}
	var wg sync.WaitGroup
	for _, n := range cl.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.stop()
		}(n)
	}
	wg.Wait()
}

// launch starts nodes p2pserve processes and returns once every one is
// ready and, in mesh mode, knows all the others.
func launch(bin, protocol string, nodes int, mesh bool) (*cluster, time.Duration, error) {
	probe := newClient(1)
	defer probe.CloseIdleConnections()
	start := time.Now()
	cl := &cluster{}
	for i := 0; i < nodes; i++ {
		var join []string
		if i > 0 {
			join = []string{cl.nodes[0].mesh}
		}
		n, err := startNode(bin, serverArgs(protocol), mesh, join)
		if err != nil {
			cl.stop()
			return nil, 0, err
		}
		cl.nodes = append(cl.nodes, n)
		if err := n.waitUntil(60*time.Second, "ready", func() bool { return n.ready(probe) }); err != nil {
			cl.stop()
			return nil, 0, err
		}
	}
	if mesh {
		for _, n := range cl.nodes {
			err := n.waitUntil(30*time.Second, "meshed", func() bool {
				st, err := n.stats(context.Background(), probe)
				return err == nil && st.Mesh != nil && len(st.Mesh.Peers) >= nodes-1
			})
			if err != nil {
				cl.stop()
				return nil, 0, err
			}
		}
	}
	return cl, time.Since(start), nil
}

// setup launches the servers rc.setups()/2 times, timing each launch to
// ready, and keeps the last cluster for the load.
func (rc *runCtx) setup(protocol string, nodes int, mesh bool) (*cluster, error) {
	rc.relaunch = func() (*cluster, error) {
		c, d, err := launch(rc.o.bin, protocol, nodes, mesh)
		if err == nil {
			rc.setupTimes = append(rc.setupTimes, d.Seconds())
		}
		return c, err
	}
	var cl *cluster
	for k := 0; k < rc.setups()/2; k++ {
		if cl != nil {
			cl.stop()
		}
		c, err := rc.relaunch()
		if err != nil {
			return nil, err
		}
		cl = c
	}
	cl.rss = sampleRSS(cl.nodes)
	return cl, nil
}

// finish stops the servers and reports their memory — server_rss_mb is
// the median of the summed resident sets sampled since set-up; the peak
// (VmHWM) goes to the record only, because it depends on when the
// collector ran and moved by 20% between runs of identical code — then
// runs the remaining launches and reports setup_s.
func (rc *runCtx) finish(cl *cluster) error {
	var peak float64
	for _, n := range cl.nodes {
		v, err := n.rssMB("VmHWM:")
		if err != nil {
			return err
		}
		peak += v
	}
	samples := cl.rss.halt().sorted()
	cl.stop()
	if len(samples) == 0 {
		return fmt.Errorf("no resident-set sample: a server exited early")
	}
	rss := samples.pct(0.5)
	rc.setE2E("server_rss_mb", "MB", rss)
	rc.setNamed("server_rss_mb", "MB", rss, len(samples))
	rc.setNamed("server_peak_rss_mb", "MB", peak, len(cl.nodes))
	for len(rc.setupTimes) < rc.setups() {
		c, err := rc.relaunch()
		if err != nil {
			return err
		}
		c.stop()
	}
	setup := median(rc.setupTimes)
	rc.setE2E("setup_s", "s", setup)
	rc.setNamed("setup_s", "s", setup, len(rc.setupTimes))
	return nil
}

func (rc *runCtx) dumpSpans() error {
	if !rc.o.trace {
		return nil
	}
	if err := os.MkdirAll(rc.o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(rc.o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", rc.o.workload, rc.o.seed))
	return rc.tr.dump(path)
}

// answers collects every successful answer for the output check.
type answers struct {
	mu    sync.Mutex
	texts []string
	got   []string
}

func (a *answers) add(text string, tags []string) {
	a.mu.Lock()
	a.texts = append(a.texts, text)
	a.got = append(a.got, joinTags(tags))
	a.mu.Unlock()
}

// check compares every collected answer with a serial in-process
// reference; each mismatch is a failed operation. ref builds one
// reference engine per checking goroutine.
func (rc *runCtx) check(a *answers, ref func() (func(string) ([]string, error), error)) error {
	const workers = 2
	bad := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		answer, err := ref()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(a.texts); i += workers {
				want, err := answer(a.texts[i])
				if err != nil {
					errs[w] = err
					return
				}
				if joinTags(want) != a.got[i] {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	rc.fail(bad[0]+bad[1], "answers differ from the serial reference")
	return nil
}

func taggerRef(protocol string) func() (func(string) ([]string, error), error) {
	return func() (func(string) ([]string, error), error) {
		train, err := serverTrainSplit()
		if err != nil {
			return nil, err
		}
		tg, err := newTagger(protocol, train)
		if err != nil {
			return nil, err
		}
		return tg.AutoTag, nil
	}
}

func ensembleRef() (func(string) ([]string, error), error) {
	train, err := serverTrainSplit()
	if err != nil {
		return nil, err
	}
	e, _, err := newEnsemble(train)
	if err != nil {
		return nil, err
	}
	return func(text string) ([]string, error) {
		out, err := e.AutoTagBatch([]string{text})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}, nil
}

// statsDelta reads one node's counters after a run, checks the serving
// accounting identity — Issued = Served + CacheHits + Coalesced + Deduped,
// and Issued grew by exactly the rows the client asked for — and sets the
// serving and swarm layer metrics from the delta.
func (rc *runCtx) statsDelta(n *node, c *http.Client, before stats, rows int64) (stats, error) {
	after, err := n.stats(context.Background(), c)
	if err != nil {
		return after, err
	}
	rc.attempted++
	if !after.identityHolds() || after.Issued-before.Issued != rows {
		rc.fail(1, "accounting identity: issued %d (+%d, client sent %d rows) != served %d + cache hits %d + coalesced %d + deduped %d",
			after.Issued, after.Issued-before.Issued, rows, after.Served, after.CacheHits, after.Coalesced, after.Deduped)
	}
	served := float64(max(after.Served-before.Served, 1))
	batches := after.Batches - before.Batches
	rc.setLayer("serving.queue_wait_mean_us", "us", float64(after.QueueWaitTotal-before.QueueWaitTotal)/1e3/served)
	rc.setLayer("serving.batch_size_mean", "docs", float64(after.BatchedDocs-before.BatchedDocs)/float64(max(batches, 1)))
	rc.setLayer("serving.batches", "count", float64(batches))
	rc.setLayer("serving.cache_hit_ratio", "ratio", float64(after.CacheHits-before.CacheHits)/float64(max(after.Issued-before.Issued, 1)))
	rc.setLayer("swarm.msgs_per_query", "count", float64(after.Network.Messages-before.Network.Messages)/served)
	rc.setLayer("swarm.bytes_per_query", "B", float64(after.Network.Bytes-before.Network.Bytes)/served)
	return after, nil
}

// hitRTT times sequential requests for one text that is already cached:
// the HTTP edge's own round trip.
func (rc *runCtx) hitRTT(n *node, text string) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	ctx := context.Background()
	if _, err := tag(ctx, c, n, text); err != nil {
		return err
	}
	reps := 400
	if rc.o.smoke {
		reps = 50
	}
	var rtt durations
	for k := 0; k < reps; k++ {
		s := time.Now()
		if _, err := tag(ctx, c, n, text); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(s))/1e3)
	}
	rc.setLayer("http.hit_rtt_p50_us", "us", rtt.sorted().pct(0.5))
	return nil
}

// latencyMetrics records <prefix>p50_ms, p90_ms and p99_ms and returns
// the median.
func (rc *runCtx) latencyMetrics(prefix string, r loadResult) float64 {
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		rc.setNamed(prefix+q.name, "ms", r.lat.pct(q.p), len(r.lat))
	}
	return r.lat.pct(0.5)
}

// profile finishes a traced run: it times the layers in-process on the
// documents the workload sent (profileLayers), then sets the run's own
// figures — the foreground p50 with spans off and on, each span name's
// mean self time, and the part of the foreground p50 the layers do not
// account for — and writes the spans out. batchDoc is the documents per
// bulk request, 0 for single-document requests.
func (rc *runCtx) profile(docs []string, engine string, batchDoc int, untraced, traced float64) error {
	if err := profileLayers(rc, layerInputs{docs: docs, engine: engine, batchDoc: batchDoc}); err != nil {
		return err
	}
	rc.setLayer("trace.fg_p50_ms.untraced", "ms", untraced)
	rc.setLayer("trace.fg_p50_ms.traced", "ms", traced)
	rc.setLayer("trace.overhead_pct", "%", 100*(traced-untraced)/untraced)
	self := rc.tr.selfTimes()
	for _, name := range spanNames {
		rc.setLayer("self_us."+name, "us", self[name])
	}
	// A request waits for its whole engine batch; a bulk request's
	// documents run in batches spread over the shards. Cache hits skip
	// the queue and the engine.
	l := func(name string) float64 { return rc.layer[name].Value }
	engineUs := l("serving.batch_exec_us_per_doc") * l("serving.batch_size_mean")
	if batchDoc > 0 {
		engineUs = l("serving.batch_exec_us_per_doc") * float64(batchDoc) / srvShards
	}
	miss := 1 - l("serving.cache_hit_ratio")
	accounted := (miss*(l("serving.queue_wait_mean_us")+engineUs) + l("http.hit_rtt_p50_us")) / 1e3
	rc.setLayer("trace.unattributed_ms", "ms", untraced-accounted)
	return rc.dumpSpans()
}

// spanNames are the spans a traced run records, each reported by self time.
var spanNames = []string{
	"http.request", "serving.request", "serving.engine_batch", "serving.swap",
	"profile.doc", "textproc.tokenize", "textproc.stem", "textproc.vectorize", "svm.score",
	"tagger.cempar.autotag", "tagger.local.autotag", "realnet.ensemble",
	"realnet.train", "realnet.publish",
}

// interactive is single-document open-loop tagging against one standalone
// CEMPaR node: two fixed rates, then a geometric rate ladder up to the
// highest rate whose p99 meets p99LimitMs. Every text is distinct, so the
// result cache never answers.
func interactive(rc *runCtx) error {
	t, err := newTexts(rc.o.seed, 400)
	if err != nil {
		return err
	}
	cl, err := rc.setup("cempar", 1, false)
	if err != nil {
		return err
	}
	defer cl.stop()
	n := cl.nodes[0]
	c := newClient(runtime.NumCPU())
	defer c.CloseIdleConnections()
	ctx := context.Background()
	ans := &answers{}
	next := 0
	var sent []string
	phase := func(name string, rate float64, dur time.Duration) loadResult {
		count := int(rate * dur.Seconds())
		off := next
		next += count
		r := openLoop(rc.tr, name, rate, count, runtime.NumCPU(), func(i int) error {
			text := t.distinct(off + i)
			tags, err := tag(ctx, c, n, text)
			if err == nil {
				ans.add(text, tags)
			}
			return err
		})
		for i := 0; i < count && len(sent) < profileDocs; i++ {
			sent = append(sent, t.distinct(off+i))
		}
		rc.addPhase(r.rec, r.rec.Sent, r.rec.Failed)
		return r
	}

	phase("warmup", lowRate, rc.span(0.05))
	before, err := n.stats(ctx, c)
	if err != nil {
		return err
	}
	rows := int64(0)
	// The `low` rate is measured in three slices spread over the run, so
	// its median samples the machine at the start, middle and end rather
	// than in one stretch.
	var low loadResult
	lowSlice := func(k int) {
		rc.tr.pause(true)
		r := phase("low-"+strconv.Itoa(k), lowRate, rc.span(0.1))
		rc.tr.pause(false)
		rows += int64(r.rec.Sent)
		low.lat = append(low.lat, r.lat...)
	}
	lowSlice(1)
	var tracedLow loadResult
	if rc.o.trace {
		lowSlice(2)
		lowSlice(3)
		tracedLow = phase("low-traced", lowRate, rc.span(0.3))
		rows += int64(tracedLow.rec.Sent)
	}
	high := phase("high", highRate, rc.span(0.15))
	rows += int64(high.rec.Sent)
	rc.latencyMetrics("tag.high.", high)

	if !rc.o.trace {
		lowSlice(2)
		maxRPS, samples, r := rc.ladder(phase, high, rows)
		rows = r
		rc.setNamed("tag.max_rps", "1/s", maxRPS, samples)
		lowSlice(3)
	}
	low.lat = low.lat.sorted()
	lowP50 := rc.latencyMetrics("tag.low.", low)
	if _, err := rc.statsDelta(n, c, before, rows); err != nil {
		return err
	}
	rc.setE2E("p50_ms", "ms", lowP50)

	if rc.o.trace {
		if err := rc.hitRTT(n, t.distinct(0)); err != nil {
			return err
		}
	}
	if err := rc.finish(cl); err != nil {
		return err
	}
	if err := rc.check(ans, taggerRef("cempar")); err != nil {
		return err
	}
	if !rc.o.trace {
		return nil
	}
	return rc.profile(sent, "cempar", 0, lowP50, tracedLow.lat.pct(0.5))
}

// ladder raises the rate geometrically from the `high` phase (its first
// step) until a step misses the p99 limit or builds a backlog, then
// bisects geometrically between the last passing and the first failing
// rate, and interpolates the limit crossing on a log rate scale. It
// returns the capacity, the samples behind it and the updated row count.
func (rc *runCtx) ladder(phase func(string, float64, time.Duration) loadResult, high loadResult, rows int64) (float64, int, int64) {
	maxSteps, bisections := 10, 3
	stepDur := rc.span(0.09)
	if rc.o.smoke {
		maxSteps, bisections = 1, 0
	}
	var good, bad, goodP99, badP99 float64
	samples := 0
	rate := highRate
	r := high
	for k := 0; ; k++ {
		samples += len(r.lat)
		p99 := r.lat.pct(0.99)
		if r.rec.BacklogMs <= p99LimitMs && p99 <= p99LimitMs && r.rec.Failed == 0 {
			good, goodP99 = rate, p99
		} else {
			bad, badP99 = rate, p99
		}
		switch {
		case bad == 0:
			rate *= ladderStep
		case good == 0:
			rate /= ladderStep
		case bisections > 0:
			bisections--
			rate = math.Sqrt(good * bad)
		default:
			k = maxSteps
		}
		if k >= maxSteps {
			break
		}
		r = phase("ladder-"+strconv.Itoa(int(rate)), rate, stepDur)
		rows += int64(r.rec.Sent)
	}
	switch {
	case bad == 0:
		return good, samples, rows // capped: the ladder never failed
	case good == 0:
		return rate, samples, rows
	}
	frac := 0.5
	if !math.IsInf(badP99, 1) && badP99 > goodP99 {
		frac = math.Min(1, math.Max(0, (p99LimitMs-goodP99)/(badP99-goodP99)))
	}
	return good * math.Pow(bad/good, frac), samples, rows
}

// bulk is closed-loop POST /v1/tag/batch from two connections, each
// request carrying bulkDocs distinct long documents, against one `local`
// node: the library-import path, where preprocessing is nearly all the
// engine's work.
func bulk(rc *runCtx) error {
	t, err := newTexts(rc.o.seed, 400)
	if err != nil {
		return err
	}
	cl, err := rc.setup("local", 1, false)
	if err != nil {
		return err
	}
	defer cl.stop()
	n := cl.nodes[0]
	conns := runtime.NumCPU()
	c := newClient(conns)
	defer c.CloseIdleConnections()
	ctx := context.Background()
	ans := &answers{}
	reqDocs := func(stream string, i int) []string {
		docs := make([]string, bulkDocs)
		for j := range docs {
			docs[j] = t.long(stream, i*bulkDocs+j, bulkParts)
		}
		return docs
	}
	run := func(name string, dur time.Duration, maxReqs int) loadResult {
		r := closedLoop(rc.tr, name, conns, dur, maxReqs, func(i int) (int, error) {
			docs := reqDocs(name, i)
			rowsGot, err := tagBatch(ctx, c, n, docs)
			if err != nil {
				return 0, err
			}
			for j, row := range rowsGot {
				if row == nil {
					return 0, fmt.Errorf("row %d unanswered", j)
				}
				ans.add(docs[j], row)
			}
			return len(docs), nil
		})
		rc.addPhase(r.rec, r.rec.Sent*bulkDocs, r.rec.Failed*bulkDocs)
		return r
	}
	run("warmup", 0, 4)
	before, err := n.stats(ctx, c)
	if err != nil {
		return err
	}
	// Traced runs send a fixed number of requests so serving.batches
	// repeats exactly.
	fixed := 0
	if rc.o.trace {
		fixed = 8 * rc.o.seconds
		if rc.o.smoke {
			fixed = 6
		}
	}
	rc.tr.pause(true)
	main := run("bulk", rc.span(1), fixed)
	rc.tr.pause(false)
	rows := int64(main.docs)
	var traced loadResult
	if rc.o.trace {
		traced = run("bulk-traced", 0, fixed)
		rows += int64(traced.docs)
	}
	if _, err := rc.statsDelta(n, c, before, rows); err != nil {
		return err
	}
	p50 := rc.latencyMetrics("bulk.req_", main)
	rc.setNamed("bulk.docs_per_s", "1/s", float64(main.docs)/main.elapsed.Seconds(), main.rec.Succeeded)
	rc.setE2E("p50_ms", "ms", p50)
	if rc.o.trace {
		if err := rc.hitRTT(n, t.distinct(0)); err != nil {
			return err
		}
	}
	if err := rc.finish(cl); err != nil {
		return err
	}
	if err := rc.check(ans, taggerRef("local")); err != nil {
		return err
	}
	if !rc.o.trace {
		return nil
	}
	var sent []string
	for i := 0; i < main.rec.Sent && len(sent) < profileDocs; i++ {
		sent = append(sent, reqDocs("bulk", i)...)
	}
	return rc.profile(sent, "local", bulkDocs, p50, traced.lat.pct(0.5))
}

// publishResult is one publish: request time and time until node 1
// serves the new generation.
type publishResult struct {
	req, converge time.Duration
	err           error
}

// publishOnce posts /v1/publish to the publisher and polls the follower's
// /v1/stats until it reports the published generation. c keeps one
// connection: idle ones close before the publish, which closes its own.
func publishOnce(ctx context.Context, c *http.Client, pub, follower *node) publishResult {
	c.CloseIdleConnections()
	var resp struct {
		Seq     uint64            `json:"seq"`
		Reached int               `json:"reached"`
		Failed  map[string]string `json:"failed"`
	}
	start := time.Now()
	if err := postJSON(ctx, c, pub.base+"/v1/publish", nil, &resp, true); err != nil {
		return publishResult{err: err}
	}
	r := publishResult{req: time.Since(start)}
	if len(resp.Failed) > 0 || resp.Reached < 1 {
		r.err = fmt.Errorf("publish %d reached %d peers, failed %v", resp.Seq, resp.Reached, resp.Failed)
		return r
	}
	deadline := start.Add(10 * time.Second)
	for {
		st, err := follower.stats(ctx, c)
		if err != nil {
			r.err = err
			return r
		}
		if st.Mesh != nil && st.Mesh.Generation != nil && st.Mesh.Generation.Seq >= resp.Seq {
			r.converge = time.Since(start)
			return r
		}
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("generation %d did not reach node 1 within 10s", resp.Seq)
			return r
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// publish runs two mesh nodes: node 0 receives POST /v1/publish every
// publishGap while node 1 serves open-loop /v1/tag at churnRate, mostly
// from a small hot set, so every install's cache flush shows.
func publish(rc *runCtx) error {
	t, err := newTexts(rc.o.seed, 200)
	if err != nil {
		return err
	}
	cl, err := rc.setup("cempar", 2, true)
	if err != nil {
		return err
	}
	defer cl.stop()
	pub, follower := cl.nodes[0], cl.nodes[1]
	ctx := context.Background()
	// One connection for the tag load, one for publishing and polling.
	tagClient, pubClient := newClient(1), newClient(1)
	defer tagClient.CloseIdleConnections()
	defer pubClient.CloseIdleConnections()

	for k := 0; k < warmPublish; k++ {
		rc.attempted++
		if r := publishOnce(ctx, pubClient, pub, follower); r.err != nil {
			return fmt.Errorf("warm-up publish: %w", r.err)
		}
	}
	hot := make([]string, hotSetSize)
	for i := range hot {
		hot[i] = t.distinct(i)
	}
	mix := hotMix{t: t, hotSet: hot, hot: hotShare, offset: hotSetSize}
	ans := &answers{}
	before, err := follower.stats(ctx, tagClient)
	if err != nil {
		return err
	}
	next := 0
	var sent []string
	churn := func(name string, dur time.Duration) (loadResult, []publishResult) {
		count := int(churnRate * dur.Seconds())
		off := next
		next += count
		stop := make(chan struct{})
		pubs := make(chan []publishResult, 1)
		go func() {
			var out []publishResult
			tick := time.NewTicker(publishGap)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					pubs <- out
					return
				case <-tick.C:
					out = append(out, publishOnce(ctx, pubClient, pub, follower))
				}
			}
		}()
		r := openLoop(rc.tr, name, churnRate, count, 1, func(i int) error {
			text := mix.text(off + i)
			tags, err := tag(ctx, tagClient, follower, text)
			if err == nil {
				ans.add(text, tags)
			}
			return err
		})
		close(stop)
		results := <-pubs
		for i := 0; i < count && len(sent) < profileDocs; i++ {
			sent = append(sent, mix.text(off+i))
		}
		rc.addPhase(r.rec, r.rec.Sent, r.rec.Failed)
		return r, results
	}

	share := 1.0
	if rc.o.trace {
		share = 0.5
	}
	rc.tr.pause(true)
	main, results := churn("churn", rc.span(share))
	rc.tr.pause(false)
	rows := int64(main.rec.Sent)
	var traced loadResult
	if rc.o.trace {
		traced, _ = churn("churn-traced", rc.span(share))
		rows += int64(traced.rec.Sent)
	}
	var reqs, conv durations
	for _, p := range results {
		rc.attempted++
		if p.err != nil {
			rc.fail(1, "publish: %v", p.err)
			continue
		}
		reqs = append(reqs, ms(p.req))
		conv = append(conv, ms(p.converge))
	}
	if len(conv) == 0 {
		return fmt.Errorf("no publish completed")
	}
	reqs, conv = reqs.sorted(), conv.sorted()
	rc.setNamed("publish.req_p50_ms", "ms", reqs.pct(0.5), len(reqs))
	rc.setNamed("publish.converge_p50_ms", "ms", conv.pct(0.5), len(conv))
	p50 := rc.latencyMetrics("tag.churn.", main)
	rc.setE2E("p50_ms", "ms", p50)

	after, err := rc.statsDelta(follower, tagClient, before, rows)
	if err != nil {
		return err
	}
	pubStats, err := pub.stats(ctx, pubClient)
	if err != nil {
		return err
	}
	rejects := after.Mesh.Transport.Rejects + pubStats.Mesh.Transport.Rejects
	rc.attempted++
	rc.fail(int(rejects), "realnet admission rejected an honest generation")
	rc.setLayer("realnet.rejects", "count", float64(rejects))
	if rc.o.trace {
		if err := rc.hitRTT(follower, hot[0]); err != nil {
			return err
		}
	}
	if err := rc.finish(cl); err != nil {
		return err
	}
	if err := rc.check(ans, ensembleRef); err != nil {
		return err
	}
	if !rc.o.trace {
		return nil
	}
	return rc.profile(sent, "ensemble", 0, p50, traced.lat.pct(0.5))
}
