package realnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/wire"
)

// Generation is one gossiped model generation: a sequence number, the
// listen address of the node that published it, and the model set itself.
// Generations are totally ordered by (Seq, Origin) — ties between
// concurrent publishers resolve by address, so every node converges on
// the same winner — and a node accepts, relays and reports only
// generations newer than the newest it has seen.
type Generation struct {
	Seq    uint64
	Origin string
	Set    *ModelSet
}

// newerThan reports whether g supersedes cur (nil means "none yet").
func (g Generation) newerThan(cur *Generation) bool {
	if cur == nil {
		return true
	}
	if g.Seq != cur.Seq {
		return g.Seq > cur.Seq
	}
	return g.Origin > cur.Origin
}

// PublishGeneration broadcasts set to the mesh as a new model generation,
// one sequence past the newest this node has seen, and returns it with
// its assigned number plus the per-peer broadcast outcome. The publisher
// records the generation as its own current one — OnGeneration does not
// fire locally; install from the return value — and keeps rebroadcasting
// it every GossipInterval while it stays the newest known, so peers that
// were dead, partitioned or quarantined during this call converge as soon
// as they are reachable again. The set must not be mutated afterwards.
func (n *Node) PublishGeneration(set *ModelSet) (Generation, PublishSummary, error) {
	if set == nil || len(set.Models) == 0 {
		return Generation{}, PublishSummary{}, errors.New("realnet: empty model set")
	}
	set.ensureFused()
	n.mu.Lock()
	seq := uint64(1)
	if n.cur != nil {
		seq = n.cur.Seq + 1
	}
	g := Generation{Seq: seq, Origin: n.ln.Addr().String(), Set: set}
	n.mu.Unlock()
	payload, err := encodeGeneration(g)
	if err != nil {
		return Generation{}, PublishSummary{}, err
	}
	n.mu.Lock()
	// Re-check: an inbound generation may have raced past us while we
	// encoded; ours still broadcasts (peers order by (Seq, Origin)) but
	// must not clobber a newer current.
	if g.newerThan(n.cur) {
		n.cur = &g
		n.curPayload = payload
	}
	n.mu.Unlock()
	return g, n.broadcast(frameGen, payload), nil
}

// CurrentGeneration returns the newest generation this node has seen or
// published, or false when none has.
func (n *Node) CurrentGeneration() (Generation, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cur == nil {
		return Generation{}, false
	}
	return *n.cur, true
}

// onGeneration handles one gossiped generation frame through the full
// Byzantine admission pipeline: size budget (enforced by readFrame before
// the payload is read), decode + content digest, origin validity, dedup by
// (Seq, Origin) — a stale echo is normal gossip traffic, never a trust
// event — then trust admission, structural validation, and the holdout
// probe. Only an admitted generation touches the peer tables, gets
// relayed, or reaches the application callback; a rejected one demotes and
// quarantines its origin.
func (n *Node) onGeneration(payload []byte) {
	g, err := decodeGeneration(payload)
	if err != nil {
		n.tr.noteCorrupt()
		return
	}
	if g.Origin == n.ln.Addr().String() {
		return // our own broadcast reflected back
	}
	if !n.validAddr(g.Origin) {
		n.tr.noteCorrupt()
		return
	}
	n.mu.Lock()
	stale := !g.newerThan(n.cur)
	n.mu.Unlock()
	if stale {
		return
	}
	now := time.Now()
	if !n.trust.admitted(g.Origin, now) {
		n.tr.noteReject(g.Origin)
		return
	}
	if err := validateModelSet(g.Set, n.cfg.MaxSetTags, n.cfg.MaxModelDim); err != nil {
		n.rejectOrigin(g.Origin, now)
		return
	}
	if len(n.probe) > 0 && n.probeAccuracy(g.Set) < n.cfg.ProbeFloor {
		n.rejectOrigin(g.Origin, now)
		return
	}
	n.trust.accept(g.Origin, now)
	n.mu.Lock()
	// Re-check the order: another admitted generation may have raced past
	// while this one was being validated and probed.
	if !g.newerThan(n.cur) {
		n.mu.Unlock()
		return
	}
	n.cur = &g
	n.curPayload = payload
	if !n.peers[g.Origin] && len(n.peers) < n.cfg.MaxPeers {
		n.peers[g.Origin] = true
	}
	n.mu.Unlock()
	n.tr.creditIn(g.Origin, len(payload))
	n.async(func() {
		// Relay first so the mesh floods in parallel with the (possibly
		// slow) local install the callback performs.
		for _, p := range n.Peers() {
			if p == g.Origin {
				continue
			}
			_ = n.tr.send(p, frameGen, payload)
		}
		if n.cfg.OnGeneration != nil {
			n.cfg.OnGeneration(g)
		}
	})
}

// gossipLoop is the periodic anti-entropy pass: while this node is the
// origin of the newest known generation it rebroadcasts the generation
// every GossipInterval. Receivers dedup by (Seq, Origin), so a steady
// state costs one small exchange per peer per interval; peers that missed
// the original broadcast (dead, partitioned, quarantined) install it on
// the first rebroadcast that reaches them, which is also what re-probes
// quarantined peers after their quarantine expires.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.mu.Lock()
			payload := n.curPayload
			mine := n.cur != nil && n.cur.Origin == n.ln.Addr().String()
			n.mu.Unlock()
			if mine && payload != nil {
				n.broadcast(frameGen, payload)
			}
		}
	}
}

// encodeGeneration lays a generation out as
// [seq uint64][origin string][digest uint64][wire model set], where the
// digest is wire.Checksum over the encoded set bytes: a frame whose set
// was corrupted or tampered with in flight fails the digest check before
// the model-set decoder ever runs on it.
func encodeGeneration(g Generation) ([]byte, error) {
	var set bytes.Buffer
	if err := wire.WriteModelSet(&set, g.Set.toWire()); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, g.Seq)
	_ = binary.Write(&buf, binary.LittleEndian, uint16(len(g.Origin)))
	buf.WriteString(g.Origin)
	_ = binary.Write(&buf, binary.LittleEndian, wire.Checksum(set.Bytes()))
	buf.Write(set.Bytes())
	return buf.Bytes(), nil
}

func decodeGeneration(payload []byte) (Generation, error) {
	r := bytes.NewReader(payload)
	var g Generation
	if err := binary.Read(r, binary.LittleEndian, &g.Seq); err != nil {
		return Generation{}, fmt.Errorf("realnet: generation seq: %w", err)
	}
	var ol uint16
	if err := binary.Read(r, binary.LittleEndian, &ol); err != nil {
		return Generation{}, fmt.Errorf("realnet: generation origin: %w", err)
	}
	ob := make([]byte, ol)
	if _, err := io.ReadFull(r, ob); err != nil {
		return Generation{}, fmt.Errorf("realnet: generation origin: %w", err)
	}
	g.Origin = string(ob)
	var digest uint64
	if err := binary.Read(r, binary.LittleEndian, &digest); err != nil {
		return Generation{}, fmt.Errorf("realnet: generation digest: %w", err)
	}
	rest := payload[len(payload)-r.Len():]
	if wire.Checksum(rest) != digest {
		return Generation{}, fmt.Errorf("realnet: generation content digest mismatch")
	}
	set, err := wire.ReadModelSet(r)
	if err != nil {
		return Generation{}, err
	}
	if r.Len() != 0 {
		return Generation{}, fmt.Errorf("realnet: %d trailing bytes after generation", r.Len())
	}
	g.Set = modelSetFromWire(set)
	return g, nil
}
