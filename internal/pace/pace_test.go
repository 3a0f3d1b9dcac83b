package pace

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/vector"
)

func topicDoc(topic, variant int) protocol.Doc {
	m := map[int32]float64{}
	for j := 0; j < 4; j++ {
		m[int32(topic*8+(variant+j)%8)] = 1
	}
	m[100] = 0.5
	return protocol.Doc{
		X:    vector.FromMap(m).Normalize(),
		Tags: []string{[]string{"music", "travel", "food"}[topic]},
	}
}

func build(t *testing.T, n int, cfg Config) (*simnet.Network, *System) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(5 * time.Millisecond), Seed: 1})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	s := New(net, ids, cfg)
	for i := range ids {
		var docs []protocol.Doc
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

func TestFitBroadcastsToAllPeers(t *testing.T) {
	net, s := build(t, 10, Config{Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	for i := 0; i < 10; i++ {
		if got := s.ModelsKnown(simnet.NodeID(i)); got != 10 {
			t.Errorf("peer %d knows %d model sets, want 10", i, got)
		}
	}
	// Broadcast cost is one message per (sender, receiver) pair.
	if msgs := net.Stats().MessagesByKind["pace.models"]; msgs != 90 {
		t.Errorf("model messages = %d, want 90", msgs)
	}
}

func TestPredictIsLocalAndCorrect(t *testing.T) {
	net, s := build(t, 9, Config{TopK: 3, Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	net.ResetStats()
	q := topicDoc(1, 2).X
	var scores []metrics.ScoredTag
	ok := false
	s.Predict(4, q, func(sc []metrics.ScoredTag, o bool) { scores, ok = sc, o })
	if !ok {
		t.Fatal("prediction failed")
	}
	// No network traffic at prediction time — PACE's key property.
	if msgs := net.Stats().MessagesSent; msgs != 0 {
		t.Errorf("prediction sent %d messages, want 0", msgs)
	}
	sm := protocol.ScoreMap(scores)
	if sm["travel"] <= sm["music"] || sm["travel"] <= sm["food"] {
		t.Errorf("travel should score highest: %v", sm)
	}
}

// TestPredictBorrowContract pins Predict's borrow contract: PACE answers
// synchronously, so a borrowed query overwritten right after Predict
// returns must have been scored, bit for bit, as the materialized query.
func TestPredictBorrowContract(t *testing.T) {
	net, s := build(t, 9, Config{TopK: 3, Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	for topic := 0; topic < 3; topic++ {
		x := topicDoc(topic, 2).X
		var want, got []metrics.ScoredTag
		wantOK, gotOK := false, false
		s.Predict(4, x, func(sc []metrics.ScoredTag, o bool) { want, wantOK = sc, o })
		entries := append([]vector.Entry(nil), x.Entries()...)
		q := vector.Borrow(entries)
		s.Predict(4, &q, func(sc []metrics.ScoredTag, o bool) {
			got = append([]metrics.ScoredTag(nil), sc...)
			gotOK = o
		})
		for i := range entries {
			entries[i].Value = -entries[i].Value
		}
		net.RunFor(time.Minute)
		if !wantOK || wantOK != gotOK {
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

func TestPredictSurvivesMassFailure(t *testing.T) {
	net, s := build(t, 9, Config{TopK: 3, Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	// Kill everyone except peer 0: prediction still works from local
	// copies of the models.
	for i := 1; i < 9; i++ {
		net.Kill(simnet.NodeID(i))
	}
	ok := false
	var scores []metrics.ScoredTag
	s.Predict(0, topicDoc(0, 1).X, func(sc []metrics.ScoredTag, o bool) { scores, ok = sc, o })
	if !ok {
		t.Fatal("prediction failed after mass failure")
	}
	if protocol.SelectTags(scores, 0, 1)[0] != "music" {
		t.Errorf("wrong prediction after failure: %v", scores)
	}
}

func TestPredictFromDeadPeerFails(t *testing.T) {
	net, s := build(t, 6, Config{Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	net.Kill(3)
	fired := false
	s.Predict(3, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("dead peer prediction reported ok")
		}
	})
	if !fired {
		t.Fatal("callback not fired")
	}
}

func TestPeerMissingBroadcastCannotUseModels(t *testing.T) {
	net, s := build(t, 6, Config{TopK: 6, Seed: 2})
	// Peer 5 is down during propagation.
	net.Kill(5)
	s.Fit()
	net.RunFor(time.Minute)
	net.Revive(5)
	// Peer 5 has no remote models (it missed every broadcast and, being
	// down at Fit time, trained no own models either).
	if got := s.ModelsKnown(5); got != 0 {
		t.Errorf("revived peer knows %d model sets, want 0", got)
	}
	fired := false
	s.Predict(5, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("peer without models answered a query")
		}
	})
	if !fired {
		t.Fatal("callback not fired")
	}
	// Other peers are unaffected.
	ok := false
	s.Predict(1, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, o bool) { ok = o })
	if !ok {
		t.Error("healthy peer failed")
	}
}

func TestLSHAndScanAgreeOnEasyQueries(t *testing.T) {
	netA, sa := build(t, 9, Config{TopK: 3, Seed: 2})
	sa.Fit()
	netA.RunFor(time.Minute)
	netB, sb := build(t, 9, Config{TopK: 3, DisableLSH: true, Seed: 2})
	sb.Fit()
	netB.RunFor(time.Minute)
	for topic := 0; topic < 3; topic++ {
		q := topicDoc(topic, 4).X
		var top1A, top1B string
		sa.Predict(1, q, func(sc []metrics.ScoredTag, ok bool) {
			if ok {
				top1A = protocol.SelectTags(sc, 0, 1)[0]
			}
		})
		sb.Predict(1, q, func(sc []metrics.ScoredTag, ok bool) {
			if ok {
				top1B = protocol.SelectTags(sc, 0, 1)[0]
			}
		})
		if top1A != top1B {
			t.Errorf("topic %d: lsh=%q scan=%q", topic, top1A, top1B)
		}
	}
}

func TestRefineRebroadcasts(t *testing.T) {
	net, s := build(t, 6, Config{Seed: 2})
	s.Fit()
	net.RunFor(time.Minute)
	before := net.Stats().MessagesByKind["pace.models"]
	doc := protocol.Doc{
		X:    vector.FromMap(map[int32]float64{300: 1}).Normalize(),
		Tags: []string{"newtag"},
	}
	s.Refine(2, doc)
	net.RunFor(time.Minute)
	after := net.Stats().MessagesByKind["pace.models"]
	if after != before+5 {
		t.Errorf("refine broadcast %d messages, want 5", after-before)
	}
	// The refined tag is now predictable from another peer... it needs at
	// least one more positive to be learnable; add them.
	for v := 0; v < 3; v++ {
		s.Refine(2, protocol.Doc{
			X:    vector.FromMap(map[int32]float64{300: 1, 301 + int32(v): 0.4}).Normalize(),
			Tags: []string{"newtag"},
		})
	}
	net.RunFor(time.Minute)
	found := false
	s.Predict(4, vector.FromMap(map[int32]float64{300: 1}).Normalize(), func(sc []metrics.ScoredTag, ok bool) {
		if !ok {
			return
		}
		_, found = protocol.ScoreMap(sc)["newtag"]
	})
	if !found {
		t.Error("refined tag not visible to other peers")
	}
}

func TestString(t *testing.T) {
	_, s := build(t, 4, Config{Seed: 1})
	if s.Name() != "PACE" || s.String() == "" {
		t.Error("bad name/string")
	}
	_, s2 := build(t, 4, Config{DisableLSH: true, Seed: 1})
	if s2.String() == s.String() {
		t.Error("retrieval mode should show in String")
	}
}

func TestLogitClamps(t *testing.T) {
	if logit(0) != -6 || logit(1) != 6 {
		t.Errorf("logit bounds: %v %v", logit(0), logit(1))
	}
	if logit(0.5) != 0 {
		t.Errorf("logit(0.5) = %v", logit(0.5))
	}
}
