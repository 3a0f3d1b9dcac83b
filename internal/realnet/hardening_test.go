package realnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// failDial fails every outbound dial immediately. Hardening tests hand
// their node invented peer addresses; this keeps the resulting background
// introduction dials from touching the real network (or hanging on an
// unroutable address) without changing what the tests observe inbound.
func failDial(addr string, timeout time.Duration) (net.Conn, error) {
	return nil, errors.New("injected: outbound disabled")
}

// rawDial opens a plain TCP connection to a node for hand-crafted frames.
func rawDial(t *testing.T, nd *Node) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestDeadlineRefreshedPerFrame is the regression test for the stale-
// deadline bug: one deadline set at accept killed an actively used
// connection once the deadline passed, mid-gossip. Frames now refresh the
// read deadline, so a connection survives as long as each frame arrives
// within FrameTimeout — even when its total lifetime is many times the
// timeout.
func TestDeadlineRefreshedPerFrame(t *testing.T) {
	nd, err := Start(Config{Seed: 1, FrameTimeout: 250 * time.Millisecond,
		Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	conn := rawDial(t, nd)
	// 6 frames, 100ms apart: the connection lives ~600ms, far past the
	// 250ms window the old code allowed, while each inter-frame gap stays
	// inside it.
	const frames = 6
	for i := 0; i < frames; i++ {
		if err := writeFrame(conn, frameHello, encodeHello([]string{"10.9.9.9:7001"})); err != nil {
			t.Fatalf("frame %d refused: %v (connection killed by stale deadline?)", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	waitFor(t, "all frames processed", func() bool {
		return nd.Transport().FramesIn >= frames
	})
	// And the refreshed deadline still fires: with no further frames the
	// connection must die after FrameTimeout, not linger forever.
	waitFor(t, "idle connection reaped", func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return len(nd.conns) == 0
	})
}

// TestCorruptFrames drives malformed input at a node: oversized length
// prefixes, truncated payloads, unknown frame types and garbage payloads
// must be counted and survived, never crash the node or poison its state.
func TestCorruptFrames(t *testing.T) {
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// Oversized: a frame claiming MaxGenBytes+1 bytes must be refused before
	// any allocation.
	over := rawDial(t, nd)
	var hdr [5]byte
	hdr[0] = frameModels
	binary.LittleEndian.PutUint32(hdr[1:], uint32(nd.cfg.MaxGenBytes+1))
	if _, err := over.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized frame counted", func() bool {
		return nd.Transport().CorruptFrames >= 1
	})

	// Truncated: a frame that promises more payload than it delivers.
	trunc := rawDial(t, nd)
	binary.LittleEndian.PutUint32(hdr[1:], 1000)
	if _, err := trunc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := trunc.Write([]byte("short")); err != nil {
		t.Fatal(err)
	}
	trunc.Close()
	waitFor(t, "truncated frame counted", func() bool {
		return nd.Transport().CorruptFrames >= 2
	})

	// Unknown type and garbage payloads: the connection keeps processing
	// later valid frames.
	conn := rawDial(t, nd)
	if err := writeFrame(conn, 99, []byte("whatever")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameModels, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, encodeHello([]string{"10.8.8.8:7002"})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid frame after garbage still processed", func() bool {
		for _, p := range nd.Peers() {
			if p == "10.8.8.8:7002" {
				return true
			}
		}
		return false
	})
	if got := nd.Transport().CorruptFrames; got < 4 {
		t.Errorf("CorruptFrames = %d, want >= 4", got)
	}
	if nd.ModelsKnown() != 0 {
		t.Errorf("garbage model frame entered the table")
	}
}

// TestFrameBudgetBeforePayload pins that the MaxGenBytes budget applies to
// the length prefix: a header claiming more than the budget is refused at
// once, not after the node has allocated the buffer and waited out the
// FrameTimeout for a payload that never comes.
func TestFrameBudgetBeforePayload(t *testing.T) {
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1, MaxGenBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	conn := rawDial(t, nd)
	var hdr [5]byte
	hdr[0] = frameGen
	binary.LittleEndian.PutUint32(hdr[1:], 2<<10)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "over-budget header counted", func() bool {
		return nd.Transport().CorruptFrames >= 1
	})
}

// TestSpoofedSenderRejected covers the sender-validation bugfix: model
// frames whose self-reported sender is empty, unparseable, or the node's
// own address must not enter the peer or model tables.
func TestSpoofedSenderRejected(t *testing.T) {
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	spoofed := []string{"", "not-an-address", ":7777", "1.2.3.4:", nd.Addr()}
	for _, sender := range spoofed {
		payload, err := encodeModelSet(sender, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, frameModels, payload); err != nil {
			t.Fatal(err)
		}
	}
	// A valid sender on the same connection still lands, proving the
	// rejects above were per-frame, not connection-fatal.
	payload, err := encodeModelSet("10.7.7.7:7003", set)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameModels, payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid sender accepted", func() bool { return nd.ModelsKnown() == 1 })
	if got := nd.Transport().CorruptFrames; got < int64(len(spoofed)) {
		t.Errorf("CorruptFrames = %d, want >= %d spoofed frames counted", got, len(spoofed))
	}
	for _, p := range nd.Peers() {
		for _, bad := range spoofed {
			if p == bad {
				t.Errorf("spoofed sender %q entered the peer table", p)
			}
		}
	}
}

// TestPeerTableCapped floods a node with invented peer addresses; the
// membership and model tables must stop growing at MaxPeers.
func TestPeerTableCapped(t *testing.T) {
	nd, err := Start(Config{Seed: 1, MaxPeers: 4, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	const flood = 20
	for i := 0; i < flood; i++ {
		hello := encodeHello([]string{
			fmt.Sprintf("10.1.2.3:%d", 4000+i),
			fmt.Sprintf("10.1.2.3:%d", 5000+i),
		})
		if err := writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		mp, err := encodeModelSet(fmt.Sprintf("10.1.2.3:%d", 6000+i), set)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, frameModels, mp); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "flood processed", func() bool {
		return nd.Transport().FramesIn >= 2*flood
	})
	if got := len(nd.Peers()); got > 4 {
		t.Errorf("peer table grew to %d despite MaxPeers=4", got)
	}
	if got := nd.ModelsKnown(); got > 4 {
		t.Errorf("model table grew to %d despite MaxPeers=4", got)
	}
}

// TestBackoffDeterministic pins the retry schedule: the jitter stream
// derives from (Seed, peer address), so two transports with the same
// configuration produce identical backoff sequences — chaos tests can
// reason about timing — while distinct peers get decorrelated jitter.
func TestBackoffDeterministic(t *testing.T) {
	cfg := Config{Seed: 42}
	cfg.defaults()
	seq := func(tr *transport, peer string) []time.Duration {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		ps := tr.peerLocked(peer)
		out := make([]time.Duration, 0, 6)
		for k := 1; k <= 6; k++ {
			out = append(out, tr.backoffLocked(ps, k))
		}
		return out
	}
	a := seq(newTransport(cfg, nil), "10.0.0.1:1")
	b := seq(newTransport(cfg, nil), "10.0.0.1:1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := seq(newTransport(cfg, nil), "10.0.0.2:1")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("two peers drew identical jitter streams")
	}
	// The exponential envelope holds: attempt k waits at least the capped
	// base exponential and at most 1.5x it.
	for k := 1; k <= 6; k++ {
		base := cfg.BackoffBase << (k - 1)
		if base > cfg.BackoffMax || base <= 0 {
			base = cfg.BackoffMax
		}
		if a[k-1] < base || a[k-1] > base+base/2 {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", k, a[k-1], base, base+base/2)
		}
	}
}

// TestQuarantineAndReprobe exercises the dead-peer path end to end: sends
// to an unreachable peer burn their retry budget, the peer is quarantined
// (sends fail fast without dialing), and the first send after the
// quarantine expires re-probes — recovering the peer once it is reachable
// again.
func TestQuarantineAndReprobe(t *testing.T) {
	var dead atomic.Bool
	dead.Store(true)
	nd, err := Start(Config{
		Seed:            1,
		MaxAttempts:     2,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   150 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			if dead.Load() {
				return nil, errors.New("injected: unreachable")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	target, err := Start(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	peer := target.Addr()

	// Two failing sends exhaust the quarantine budget.
	for i := 0; i < 2; i++ {
		if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); err == nil {
			t.Fatal("send to unreachable peer succeeded")
		}
	}
	st := nd.Transport().Peers[peer]
	if !st.Quarantined || st.Failures != 2 || st.Retries != 2 {
		t.Fatalf("after failures: %+v, want quarantined with 2 failures and 2 retries", st)
	}
	// Quarantined: the next send fails fast without burning dials.
	if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("quarantined send error = %v, want ErrPeerQuarantined", err)
	}
	if got := nd.Transport().Peers[peer].Retries; got != 2 {
		t.Errorf("quarantined send dialed anyway (retries %d)", got)
	}
	// Heal the peer; once the quarantine expires the next send re-probes
	// and recovers.
	dead.Store(false)
	time.Sleep(160 * time.Millisecond)
	if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); err != nil {
		t.Fatalf("re-probe after heal failed: %v", err)
	}
	st = nd.Transport().Peers[peer]
	if st.Quarantined || st.ConsecutiveFailures != 0 || st.FramesOut != 1 {
		t.Fatalf("after recovery: %+v, want clean un-quarantined state with 1 frame out", st)
	}
}

// TestHelloIntroductionsOffReaderPath is the regression test for the
// reader-goroutine dial bug: a hello introducing an unreachable peer used
// to stall the connection's frame processing for a full dial timeout.
// With introductions on the background pool, a models frame sent right
// after such a hello must be processed while the dial is still hanging.
func TestHelloIntroductionsOffReaderPath(t *testing.T) {
	dialStarted := make(chan struct{}, 8)
	release := make(chan struct{})
	nd, err := Start(Config{
		Seed: 1,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dialStarted <- struct{}{}
			<-release // an "unreachable" peer: the dial hangs
			return nil, errors.New("injected: unreachable")
		},
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nd.Close() }()
	defer close(release)
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	if err := writeFrame(conn, frameHello, encodeHello([]string{"10.3.3.3:7009"})); err != nil {
		t.Fatal(err)
	}
	// The introduction dial must start (proving it was attempted)...
	select {
	case <-dialStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("introduction was never dialed")
	}
	// ...while the reader keeps consuming: the models frame lands even
	// though the dial is still hanging.
	payload, err := encodeModelSet("10.4.4.4:7010", set)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameModels, payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "models processed while introduction dial hangs", func() bool {
		return nd.ModelsKnown() == 1
	})
}

// TestPublishReportsPartialFailure covers the swallowed-send-error bugfix:
// a broadcast that cannot reach every peer must say so, per peer, instead
// of silently dropping the frames.
func TestPublishReportsPartialFailure(t *testing.T) {
	live, err := Start(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// A dead address: bind a port, then close it so connections refuse.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := tmp.Addr().String()
	tmp.Close()

	nd, err := Start(Config{
		Seed:        1,
		Seeds:       []string{live.Addr(), deadAddr},
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for i, doc := range trainingTexts(0) {
		if err := nd.AddDocument(doc.Text, doc.Tags...); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	sum, err := nd.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reached != 1 {
		t.Errorf("Reached = %d, want 1", sum.Reached)
	}
	if sum.AllReached() {
		t.Error("AllReached() = true despite a dead peer")
	}
	if _, ok := sum.Failed[deadAddr]; !ok {
		t.Errorf("Failed = %v, missing dead peer %s", sum.Failed, deadAddr)
	}
	st := nd.Transport().Peers[deadAddr]
	if st.Failures == 0 || st.Retries == 0 {
		t.Errorf("dead peer transport counters %+v recorded no failures/retries", st)
	}
	waitFor(t, "live peer received the set", func() bool { return live.ModelsKnown() == 1 })
}

// trainingTexts returns a small clearly separable labeled corpus; topic
// rotates which tags it carries so distinct callers get distinct sets.
func trainingTexts(topic int) []TaggedText {
	topics := [][2]string{
		{"music", "guitar melody chord song album piano concert symphony"},
		{"travel", "flight hotel passport itinerary beach island resort museum"},
		{"cooking", "recipe oven butter flour sugar grill steak garlic sauce"},
	}
	var out []TaggedText
	for k := 0; k < 2; k++ {
		tag, words := topics[(topic+k)%len(topics)][0], topics[(topic+k)%len(topics)][1]
		fields := strings.Fields(words)
		for i := 0; i < 5; i++ {
			var sb strings.Builder
			for j := 0; j < 6; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(fields[(i+j)%len(fields)])
			}
			out = append(out, TaggedText{Text: sb.String(), Tags: []string{tag}})
		}
	}
	return out
}

// TestQuarantineReprobeTiming pins the re-probe schedule around the
// quarantine window: once a peer is quarantined, no send dials it before
// the deterministic window (QuarantineFor from the quarantining failure)
// expires — even when the peer is healthy again — and every in-window
// broadcast reports it in the Failed map with ErrPeerQuarantined. The
// first send after expiry is the re-probe, and its success fully restores
// the peer: failure streak cleared, quarantine flag dropped, broadcasts
// reaching it again with an empty Failed map.
func TestQuarantineReprobeTiming(t *testing.T) {
	const window = 500 * time.Millisecond
	var dead atomic.Bool
	var dials atomic.Int64
	dead.Store(true)
	nd, err := Start(Config{
		Seed:            3,
		MaxAttempts:     1,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   window,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			if dead.Load() {
				return nil, errors.New("injected: unreachable")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	target, err := Start(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	peer := target.Addr()
	nd.addPeer(peer)

	// Two failing broadcasts exhaust the quarantine budget; each reports
	// the peer in its Failed map.
	for i := 0; i < 2; i++ {
		sum := nd.broadcastHello()
		if _, failed := sum.Failed[peer]; !failed || sum.Reached != 0 {
			t.Fatalf("broadcast %d to dead peer: %+v, want it in Failed", i, sum)
		}
	}
	quarantinedAt := time.Now()
	dialsAtQuarantine := dials.Load()
	if st := nd.Transport().Peers[peer]; !st.Quarantined || st.ConsecutiveFailures != 2 {
		t.Fatalf("after budget exhausted: %+v, want quarantined with streak 2", st)
	}

	// Heal the peer immediately: the window must hold anyway. In-window
	// broadcasts fast-fail with ErrPeerQuarantined and never dial.
	dead.Store(false)
	sum := nd.broadcastHello()
	if err, failed := sum.Failed[peer]; !failed || !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("in-window broadcast: %+v, want ErrPeerQuarantined in Failed", sum)
	}
	if got := dials.Load(); got != dialsAtQuarantine {
		t.Fatalf("quarantined peer was dialed during its window (%d dials, had %d)", got, dialsAtQuarantine)
	}

	// Poll until the re-probe goes through. Every broadcast that still
	// fails must be the fast-fail — never a dial — until the window has
	// expired; the one that succeeds must come after it.
	waitFor(t, "re-probe after the window", func() bool {
		sum := nd.broadcastHello()
		if len(sum.Failed) == 0 {
			return true
		}
		if err := sum.Failed[peer]; !errors.Is(err, ErrPeerQuarantined) {
			t.Fatalf("in-window broadcast failed with %v, want ErrPeerQuarantined", err)
		}
		if got := dials.Load(); got != dialsAtQuarantine {
			t.Fatalf("dialed before the quarantine window expired")
		}
		return false
	})
	if elapsed := time.Since(quarantinedAt); elapsed < window {
		t.Errorf("re-probe succeeded %v after quarantine, window is %v", elapsed, window)
	}
	if got := dials.Load(); got != dialsAtQuarantine+1 {
		t.Errorf("re-probe took %d dials, want exactly 1", got-dialsAtQuarantine)
	}
	st := nd.Transport().Peers[peer]
	if st.Quarantined || st.ConsecutiveFailures != 0 || st.FramesOut != 1 {
		t.Fatalf("after re-probe: %+v, want fully restored with 1 frame out", st)
	}
	// Restored means restored: the next broadcast reaches the peer with a
	// clean summary.
	if sum := nd.broadcastHello(); len(sum.Failed) != 0 || sum.Reached != 1 {
		t.Errorf("post-restore broadcast: %+v, want clean reach", sum)
	}
}
