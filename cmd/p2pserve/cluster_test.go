package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	doctagger "repro"
	"repro/internal/realnet"
)

// clusterOptions is testOptions tuned for cluster tests: the local
// protocol trains in milliseconds, and the ensemble knobs match the flag
// defaults.
func clusterOptions() options {
	o := testOptions()
	o.protocol = "local"
	o.threshold = 0.5
	o.maxTags = 4
	return o
}

// testMesh is the fast-knob realnet configuration cluster tests run on:
// tiny backoffs and a 100ms anti-entropy interval so quarantine,
// re-probe and convergence all play out in well under a second.
func testMesh(seed int64, dial realnet.DialFunc, seeds ...string) realnet.Config {
	return realnet.Config{
		Seed:            seed,
		Seeds:           seeds,
		Dial:            dial,
		DialTimeout:     time.Second,
		MaxAttempts:     2,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   100 * time.Millisecond,
		GossipInterval:  100 * time.Millisecond,
	}
}

// clusterNode is one in-process p2pserve node under test: the app, its
// HTTP front-end, and the client-side count of answer rows asked of it
// (the number Stats().Issued must equal at the end).
type clusterNode struct {
	a      *app
	ts     *httptest.Server
	issued atomic.Int64
}

func startClusterNode(t *testing.T, o options, build func(int) (*doctagger.Tagger, error),
	trainTexts []realnet.TaggedText, cfg realnet.Config) *clusterNode {
	t.Helper()
	pool, err := newPool(o, build)
	if err != nil {
		t.Fatal(err)
	}
	a := &app{pool: pool, build: build, o: o, trainTexts: trainTexts}
	if err := a.startMesh(cfg); err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return &clusterNode{a: a, ts: httptest.NewServer(a.mux())}
}

func (n *clusterNode) stop() {
	n.ts.Close()
	n.a.draining.Store(true)
	n.a.closeMesh()
	n.a.pool.Close()
}

// installedSeq reports the gossiped generation the node's pool serves, or
// 0 if it still serves its initial tagger generation.
func (n *clusterNode) installedSeq() uint64 {
	n.a.genMu.Lock()
	defer n.a.genMu.Unlock()
	if n.a.lastGen == nil {
		return 0
	}
	return n.a.lastGen.Seq
}

// checkIdentity asserts the serving accounting identity on the node:
// every answer row the clients asked for is accounted for exactly once.
func (n *clusterNode) checkIdentity(t *testing.T, name string) {
	t.Helper()
	st := n.a.pool.Stats()
	if st.Issued != st.Served+st.CacheHits+st.Coalesced+st.Deduped {
		t.Errorf("%s: identity broken: Issued %d != Served %d + CacheHits %d + Coalesced %d + Deduped %d",
			name, st.Issued, st.Served, st.CacheHits, st.Coalesced, st.Deduped)
	}
	if want := n.issued.Load(); st.Issued != want {
		t.Errorf("%s: Issued = %d, clients asked for %d rows", name, st.Issued, want)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestClusterChaos is the cluster acceptance test: three mesh-joined
// serving nodes under continuous query load while one node is killed and
// restarted and another is partitioned and healed. Throughout, every
// query is answered (zero dropped requests) with a result byte-identical
// to one of the two serial references — the initial tagger generation or
// the published model generation — a generation published on one node
// reaches every survivor through gossip and installs through the swap
// path, and the serving accounting identity holds on every node against a
// client-side row count.
func TestClusterChaos(t *testing.T) {
	o := clusterOptions()
	build, queries, trainTexts, err := makeBuild(o)
	if err != nil {
		t.Fatal(err)
	}
	probes := queries[:min(12, len(queries))]

	// Serial references. refTagger is what build(0) answers alone — the
	// pools must match it before the publish. refEnsemble is what a
	// single ensemble over the deterministically trained set answers —
	// the pools must match it after installing the gossiped generation.
	tg, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	refTagger := make(map[string]string, len(probes))
	for _, q := range probes {
		tags, err := tg.AutoTag(q)
		if err != nil {
			t.Fatal(err)
		}
		refTagger[q] = fmt.Sprint(tags)
	}
	set, err := realnet.TrainModelSet(trainTexts, 1, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := realnet.NewEnsemble(o.threshold, o.maxTags, set)
	if err != nil {
		t.Fatal(err)
	}
	ensRows, err := ens.AutoTagBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	refEnsemble := make(map[string]string, len(probes))
	for i, q := range probes {
		refEnsemble[q] = fmt.Sprint(ensRows[i])
	}

	// Shared dialer with an injectable partition: while partitioned, every
	// dial to the victim fails (and the victim's own config uses the same
	// dialer, so its outbound dials to anyone fail symmetrically — the
	// victim is fully cut off, not just unreachable).
	var partitioned atomic.Bool
	var victim atomic.Value // string mesh address
	victim.Store("")
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() && addr == victim.Load().(string) {
			return nil, fmt.Errorf("injected: partitioned")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	victimDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() {
			return nil, fmt.Errorf("injected: partitioned")
		}
		return dial(addr, timeout)
	}

	na := startClusterNode(t, o, build, trainTexts, testMesh(1, dial))
	defer na.stop()
	nb := startClusterNode(t, o, build, trainTexts, testMesh(2, dial, na.a.mesh.Addr()))
	nc := startClusterNode(t, o, build, trainTexts, testMesh(3, victimDial, na.a.mesh.Addr()))
	defer nc.stop()
	waitFor(t, "membership", func() bool {
		return len(na.a.mesh.Peers()) >= 2 && len(nb.a.mesh.Peers()) >= 2 && len(nc.a.mesh.Peers()) >= 2
	})

	// Continuous query load on every node for the duration of the chaos:
	// each answer must byte-match one of the two serial references for
	// its query — a response from any third, inconsistent state fails.
	ctx := t.Context()
	stops := map[*clusterNode]chan struct{}{}
	var wg sync.WaitGroup
	hammer := func(name string, n *clusterNode) {
		stop := make(chan struct{})
		stops[n] = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := probes[i%len(probes)]
				tags, err := n.a.pool.Tag(ctx, q)
				if err != nil {
					t.Errorf("%s: dropped request during chaos: %v", name, err)
					return
				}
				n.issued.Add(1)
				if got := fmt.Sprint(tags); got != refTagger[q] && got != refEnsemble[q] {
					t.Errorf("%s: answer %s for %q matches no generation (tagger %s, ensemble %s)",
						name, got, q, refTagger[q], refEnsemble[q])
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	hammer("node-a", na)
	hammer("node-b", nb)
	hammer("node-c", nc)
	time.Sleep(50 * time.Millisecond)

	// Chaos, step 1: node B dies mid-run (its own load stops with it; the
	// accounting identity must hold on everything it served up to then).
	close(stops[nb])
	delete(stops, nb)
	nb.stop()
	nb.checkIdentity(t, "node-b (killed)")

	// Chaos, step 2: node C is partitioned off.
	victim.Store(nc.a.mesh.Addr())
	partitioned.Store(true)

	// Publish a model generation on node A over its HTTP API. B is dead
	// and C is partitioned, so the broadcast must report C as failed —
	// and A itself must install the generation regardless.
	resp, err := http.Post(na.ts.URL+"/v1/publish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pub struct {
		Seq     uint64            `json:"seq"`
		Origin  string            `json:"origin"`
		Reached int               `json:"reached"`
		Failed  map[string]string `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: status %d", resp.StatusCode)
	}
	if pub.Seq != 1 || pub.Origin != na.a.mesh.Addr() {
		t.Fatalf("publish reported seq %d origin %s", pub.Seq, pub.Origin)
	}
	if _, cut := pub.Failed[nc.a.mesh.Addr()]; !cut {
		t.Fatalf("publish did not report the partitioned peer as failed: %+v", pub)
	}
	waitFor(t, "publisher installed its own generation", func() bool { return na.installedSeq() == pub.Seq })
	if nc.installedSeq() != 0 {
		t.Fatal("partitioned node received the generation through the partition")
	}

	// Chaos, step 3: node B restarts at a fresh mesh address and must
	// catch up on the already-published generation via the hello path.
	nb2 := startClusterNode(t, o, build, trainTexts, testMesh(4, dial, na.a.mesh.Addr()))
	defer nb2.stop()
	waitFor(t, "restarted node caught up", func() bool { return nb2.installedSeq() == pub.Seq })

	// Chaos, step 4: the partition heals; the origin's anti-entropy
	// rebroadcast must reach C — including through quarantine re-probe.
	partitioned.Store(false)
	waitFor(t, "healed node converged", func() bool { return nc.installedSeq() == pub.Seq })

	for _, stop := range stops {
		close(stop)
	}
	wg.Wait()

	// Post-convergence: every surviving node answers the probe set
	// byte-identically to the serial ensemble reference.
	for name, n := range map[string]*clusterNode{"node-a": na, "node-b2": nb2, "node-c": nc} {
		for _, q := range probes {
			tags, err := n.a.pool.Tag(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n.issued.Add(1)
			if got := fmt.Sprint(tags); got != refEnsemble[q] {
				t.Errorf("%s: answer %s for %q, serial ensemble says %s", name, got, q, refEnsemble[q])
			}
		}
		n.checkIdentity(t, name)
	}

	// The /v1/stats mesh section reports the installed generation and live
	// transport counters.
	statsResp, err := http.Get(na.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Mesh == nil {
		t.Fatal("/v1/stats has no mesh section in cluster mode")
	}
	if st.Mesh.Generation == nil || st.Mesh.Generation.Seq != pub.Seq || st.Mesh.Generation.Origin != pub.Origin {
		t.Errorf("mesh generation = %+v, want seq %d origin %s", st.Mesh.Generation, pub.Seq, pub.Origin)
	}
	var framesOut int64
	for _, ps := range st.Mesh.Transport.Peers {
		framesOut += ps.FramesOut
	}
	if framesOut == 0 {
		t.Error("publisher transport counters show no frames sent")
	}
}

// TestClusterRefreshRefused: a cluster member refuses POST /v1/refresh
// with 409 — before and after it installs a published generation — and
// keeps serving the generation its mesh agreed on: a local retrain would
// diverge from the mesh.
func TestClusterRefreshRefused(t *testing.T) {
	o := clusterOptions()
	build, queries, trainTexts, err := makeBuild(o)
	if err != nil {
		t.Fatal(err)
	}
	n := startClusterNode(t, o, build, trainTexts, testMesh(1, nil))
	defer n.stop()
	refresh := func(when string) {
		t.Helper()
		resp, err := http.Post(n.ts.URL+"/v1/refresh", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("refresh %s: status %d, want 409", when, resp.StatusCode)
		}
	}
	refresh("before publish")
	resp, err := http.Post(n.ts.URL+"/v1/publish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: status %d", resp.StatusCode)
	}
	if n.installedSeq() != 1 {
		t.Fatalf("publisher installed generation %d, want 1", n.installedSeq())
	}
	refresh("after publish")

	set, err := realnet.TrainModelSet(trainTexts, 1, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := realnet.NewEnsemble(o.threshold, o.maxTags, set)
	if err != nil {
		t.Fatal(err)
	}
	probes := queries[:min(6, len(queries))]
	want, err := ens.AutoTagBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range probes {
		tags, err := n.a.pool.Tag(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tags) != fmt.Sprint(want[i]) {
			t.Errorf("after refused refresh, %q answered %v, want the gossiped generation's %v", q, tags, want[i])
		}
	}
	if st := n.a.pool.Stats(); st.Generation != 2 {
		t.Errorf("pool generation %d, want 2 (initial + published)", st.Generation)
	}
}
