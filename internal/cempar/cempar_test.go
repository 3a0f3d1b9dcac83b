package cempar

import (
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/vector"
)

// topicDoc builds a document vector concentrated on a topic's feature block
// (features [topic*8, topic*8+8)), labeled with the topic's tag.
func topicDoc(topic int, variant int) protocol.Doc {
	m := map[int32]float64{}
	for j := 0; j < 4; j++ {
		m[int32(topic*8+(variant+j)%8)] = 1
	}
	// Shared background feature.
	m[100] = 0.5
	return protocol.Doc{
		X:    vector.FromMap(m).Normalize(),
		Tags: []string{tagOf(topic)},
	}
}

func tagOf(topic int) string { return []string{"music", "travel", "food"}[topic] }

// build creates a CEMPaR deployment over n peers where peer i holds
// documents of topic i%3.
func build(t *testing.T, n int, cfg Config) (*simnet.Network, *System) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(5 * time.Millisecond), Seed: 1})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var s *System
	ring := dht.New(net, ids, func(id simnet.NodeID) simnet.Handler {
		return simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			if s != nil {
				s.Handler(id).HandleMessage(nn, m)
			}
		})
	})
	s = New(ring, cfg)
	for i := range ids {
		var docs []protocol.Doc
		// Each peer holds several docs of its main topic and a few of the
		// next topic, so every peer sees at least two classes.
		for v := 0; v < 6; v++ {
			docs = append(docs, topicDoc(i%3, v))
		}
		for v := 0; v < 3; v++ {
			docs = append(docs, topicDoc((i+1)%3, v))
		}
		s.SetDocs(ids[i], docs)
	}
	return net, s
}

func predict(t *testing.T, net *simnet.Network, s *System, from simnet.NodeID, x *vector.Sparse) ([]metrics.ScoredTag, bool) {
	t.Helper()
	var scores []metrics.ScoredTag
	ok, fired := false, false
	s.Predict(from, x, func(sc []metrics.ScoredTag, o bool) {
		scores, ok, fired = sc, o, true
	})
	net.RunFor(30 * time.Second)
	if !fired {
		t.Fatal("prediction callback never fired")
	}
	return scores, ok
}

func TestFitAndPredict(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, Weighted: true, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	// Query a fresh music document.
	q := topicDoc(0, 2).X
	scores, ok := predict(t, net, s, 5, q)
	if !ok {
		t.Fatal("prediction failed")
	}
	sm := protocol.ScoreMap(scores)
	if sm["music"] <= sm["travel"] || sm["music"] <= sm["food"] {
		t.Errorf("music should score highest: %v", sm)
	}
	best := protocol.SelectTags(scores, 0.5, 1)
	if len(best) != 1 || best[0] != "music" {
		t.Errorf("SelectTags = %v", best)
	}
}

// TestPredictBorrowContract pins Predict's borrow contract: the query is
// valid only until Predict returns, so a caller may overwrite its entries
// right away, before the network runs. CEMPaR's query crosses the swarm,
// so Predict must clone it; the overwritten borrowed query must answer bit
// for bit as the materialized query on a twin swarm.
func TestPredictBorrowContract(t *testing.T) {
	cfg := Config{Regions: 2, Weighted: true, Seed: 3}
	netA, a := build(t, 12, cfg)
	a.Fit()
	netA.RunFor(time.Minute)
	netB, b := build(t, 12, cfg)
	b.Fit()
	netB.RunFor(time.Minute)
	for topic := 0; topic < 3; topic++ {
		x := topicDoc(topic, 2).X
		want, wantOK := predict(t, netA, a, 5, x)
		entries := append([]vector.Entry(nil), x.Entries()...)
		q := vector.Borrow(entries)
		var got []metrics.ScoredTag
		gotOK := false
		b.Predict(5, &q, func(sc []metrics.ScoredTag, o bool) { got, gotOK = sc, o })
		for i := range entries {
			entries[i].Value = -entries[i].Value
		}
		netB.RunFor(30 * time.Second)
		if !wantOK || gotOK != wantOK {
			t.Fatalf("topic %d: borrowed ok=%v, materialized ok=%v", topic, gotOK, wantOK)
		}
		if len(got) != len(want) {
			t.Fatalf("topic %d: %d borrowed scores, %d materialized", topic, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("topic %d score %d: borrowed %+v != materialized %+v", topic, i, got[i], want[i])
			}
		}
	}
}

func TestModelsReachSuperPeers(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	sps := s.SuperPeers()
	if len(sps) != 2 {
		t.Fatalf("super-peers = %v", sps)
	}
	total := 0
	for _, sp := range sps {
		total += s.RegionalTagCount(sp)
	}
	if total == 0 {
		t.Fatal("no regional models cascaded")
	}
}

func TestPredictFromDeadPeerFails(t *testing.T) {
	net, s := build(t, 8, Config{Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	net.Kill(2)
	fired := false
	s.Predict(2, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("dead peer prediction reported ok")
		}
	})
	if !fired {
		t.Fatal("callback not fired synchronously for dead peer")
	}
}

func TestQueryTimesOutWhenSuperPeersDie(t *testing.T) {
	net, s := build(t, 8, Config{Regions: 2, QueryTimeout: 5 * time.Second, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	for _, sp := range s.SuperPeers() {
		net.Kill(sp)
	}
	// Pick a querying peer that is still alive.
	var from simnet.NodeID = -1
	for _, id := range net.AliveNodes() {
		from = id
		break
	}
	if from < 0 {
		t.Skip("all peers were super-peers")
	}
	scores, ok := predict(t, net, s, from, topicDoc(0, 0).X)
	if ok && len(scores) > 0 {
		t.Error("query to dead super-peers should fail or return empty")
	}
}

func TestRefreshAfterSuperPeerFailureRestoresService(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, QueryTimeout: 5 * time.Second, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	before := s.SuperPeers()
	for _, sp := range before {
		net.Kill(sp)
	}
	// Restabilize the ring and re-propagate models to the new super-peers.
	// (The p2pdmt harness does this periodically under churn.)
	s.d.Stabilize()
	net.RunFor(10 * time.Second)
	s.Refresh()
	net.RunFor(time.Minute)
	var from simnet.NodeID = -1
	for _, id := range net.AliveNodes() {
		from = id
		break
	}
	scores, ok := predict(t, net, s, from, topicDoc(1, 1).X)
	if !ok {
		t.Fatal("prediction still failing after refresh")
	}
	sm := protocol.ScoreMap(scores)
	if sm["travel"] <= sm["food"] {
		t.Errorf("travel should outscore food: %v", sm)
	}
}

func TestRefineImprovesCoverage(t *testing.T) {
	net, s := build(t, 9, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	// Introduce a brand-new tag via refinement at one peer.
	novel := protocol.Doc{
		X:    vector.FromMap(map[int32]float64{200: 1, 201: 1}).Normalize(),
		Tags: []string{"quantum"},
	}
	// Refine with several positives so a model can exist.
	for v := 0; v < 4; v++ {
		d := protocol.Doc{
			X:    vector.FromMap(map[int32]float64{200: 1, 201: 1, 202 + int32(v): 0.5}).Normalize(),
			Tags: []string{"quantum"},
		}
		s.Refine(3, d)
	}
	net.RunFor(time.Minute)
	scores, ok := predict(t, net, s, 4, novel.X)
	if !ok {
		t.Fatal("prediction failed after refine")
	}
	if _, found := protocol.ScoreMap(scores)["quantum"]; !found {
		t.Error("refined tag never became predictable")
	}
}

func TestWeightedVsUnweightedDiffer(t *testing.T) {
	netW, sw := build(t, 12, Config{Regions: 3, Weighted: true, Seed: 3})
	sw.Fit()
	netW.RunFor(time.Minute)
	netU, su := build(t, 12, Config{Regions: 3, Weighted: false, Seed: 3})
	su.Fit()
	netU.RunFor(time.Minute)
	q := topicDoc(0, 3).X
	a, okA := predict(t, netW, sw, 1, q)
	b, okB := predict(t, netU, su, 1, q)
	if !okA || !okB {
		t.Fatal("predictions failed")
	}
	// Both should still rank music first.
	if protocol.SelectTags(a, 0, 1)[0] != "music" || protocol.SelectTags(b, 0, 1)[0] != "music" {
		t.Error("voting mode changed the top-1 on an easy query")
	}
}

func TestTrainCostCountedOnce(t *testing.T) {
	net, s := build(t, 8, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	sent := net.Stats().MessagesByKind["cempar.models"]
	if sent == 0 || sent > 8 {
		t.Errorf("model messages = %d, want one per peer at most", sent)
	}
	// A refresh without super-peer change must not re-send models.
	s.Refresh()
	net.RunFor(time.Minute)
	if again := net.Stats().MessagesByKind["cempar.models"]; again != sent {
		t.Errorf("refresh re-sent models: %d -> %d", sent, again)
	}
}

func TestString(t *testing.T) {
	_, s := build(t, 4, Config{Regions: 2, Seed: 1})
	if s.String() == "" || s.Name() != "CEMPaR" {
		t.Error("bad name/string")
	}
}
