package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	doctagger "repro"
	"repro/internal/realnet"
	"repro/internal/runner"
)

// The corpus and model flags every p2pserve node runs with. They are
// passed explicitly, and the serial reference is built from the same
// values, so a changed default in p2pserve cannot silently desynchronize
// the output check.
const (
	srvPeers     = 8
	srvShards    = 2
	srvDocsMin   = 8
	srvDocsMax   = 12
	srvTags      = 8
	srvSeed      = 1
	srvThreshold = 0.5
	srvMaxTags   = 4
	srvCache     = 1024
)

// serverArgs are the p2pserve flags for protocol; the workload adds the
// listen addresses.
func serverArgs(protocol string) []string {
	return []string{
		"-protocol", protocol,
		"-peers", strconv.Itoa(srvPeers),
		"-shards", strconv.Itoa(srvShards),
		"-seed", strconv.Itoa(srvSeed),
		"-docs-min", strconv.Itoa(srvDocsMin),
		"-docs-max", strconv.Itoa(srvDocsMax),
		"-tags", strconv.Itoa(srvTags),
		"-threshold", strconv.FormatFloat(srvThreshold, 'g', -1, 64),
		"-max-tags", strconv.Itoa(srvMaxTags),
		"-cache", strconv.Itoa(srvCache),
	}
}

// serverTrainSplit regenerates the training split p2pserve builds its
// taggers and gossiped generations from.
func serverTrainSplit() ([]doctagger.CorpusDoc, error) {
	docs, _, err := doctagger.GenerateCorpus(doctagger.CorpusConfig{
		Users:          srvPeers,
		DocsPerUserMin: srvDocsMin,
		DocsPerUserMax: srvDocsMax,
		NumTags:        srvTags,
		Seed:           srvSeed,
	})
	if err != nil {
		return nil, err
	}
	train, _ := doctagger.SplitCorpus(docs, 0.5, srvSeed)
	return train, nil
}

// newTagger trains one tagger exactly as a p2pserve shard does.
func newTagger(protocol string, train []doctagger.CorpusDoc) (*doctagger.Tagger, error) {
	tg, err := doctagger.New(doctagger.Config{
		Protocol:  protocol,
		Peers:     srvPeers,
		Threshold: srvThreshold,
		Seed:      srvSeed,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range train {
		if err := tg.AddDocument(d.User%srvPeers, d.Text, d.Tags...); err != nil {
			return nil, err
		}
	}
	return tg, tg.Train()
}

func taggedTexts(train []doctagger.CorpusDoc) []realnet.TaggedText {
	out := make([]realnet.TaggedText, len(train))
	for i, d := range train {
		out[i] = realnet.TaggedText{Text: d.Text, Tags: d.Tags}
	}
	return out
}

// newEnsemble builds the engine a mesh node installs for a published
// generation: p2pserve's /v1/publish trains on the corpus training split
// with C = 1 and the node seed.
func newEnsemble(train []doctagger.CorpusDoc) (*realnet.Ensemble, *realnet.ModelSet, error) {
	set, err := realnet.TrainModelSet(taggedTexts(train), 1, srvSeed)
	if err != nil {
		return nil, nil, err
	}
	e, err := realnet.NewEnsemble(srvThreshold, srvMaxTags, set)
	return e, set, err
}

// texts generates the workload's inputs from its seed. The documents come
// from a synthetic corpus drawn with the workload seed over the same tag
// universe the servers were trained on, so queries look like the training
// data without repeating it. Text i is a pure function of (seed, i).
type texts struct {
	seed int64
	docs []string
}

func newTexts(seed int64, users int) (*texts, error) {
	docs, _, err := doctagger.GenerateCorpus(doctagger.CorpusConfig{
		Users:   users,
		NumTags: srvTags,
		Seed:    runner.DeriveSeed(seed, "perfbench", "corpus"),
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(docs))
	t := &texts{seed: seed}
	for _, d := range docs {
		if !seen[d.Text] {
			seen[d.Text] = true
			t.docs = append(t.docs, d.Text)
		}
	}
	if len(t.docs) < 2 {
		return nil, fmt.Errorf("corpus too small: %d distinct documents", len(t.docs))
	}
	perm := rand.New(rand.NewPCG(uint64(seed), 0x7065726d)).Perm(len(t.docs))
	shuffled := make([]string, len(t.docs))
	for i, j := range perm {
		shuffled[i] = t.docs[j]
	}
	t.docs = shuffled
	return t, nil
}

// distinct is the i-th text of an endless stream of pairwise distinct
// texts: first every corpus document once, then ordered pairs of distinct
// documents, enumerated without repetition.
func (t *texts) distinct(i int) string {
	n := len(t.docs)
	if i < n {
		return t.docs[i]
	}
	k := i - n
	a := k % n
	b := (a + 1 + (k/n)%(n-1)) % n
	return t.docs[a] + " " + t.docs[b]
}

// long is a long document: parts corpus documents chosen by (seed, stream,
// i). Bulk requests carry these.
func (t *texts) long(stream string, i, parts int) string {
	rng := rand.New(rand.NewPCG(uint64(runner.DeriveSeed(t.seed, stream, strconv.Itoa(i))), 0x6c6f6e67))
	var b strings.Builder
	for p := 0; p < parts; p++ {
		if p > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.docs[rng.IntN(len(t.docs))])
	}
	return b.String()
}

// hotMix draws request i from a small hot set with probability hot,
// otherwise a distinct text from the pool's tail (offset keeps the two
// apart).
type hotMix struct {
	t      *texts
	hotSet []string
	hot    float64
	offset int
}

func (m hotMix) text(i int) string {
	rng := rand.New(rand.NewPCG(uint64(m.t.seed), uint64(i)^0x686f74))
	if rng.Float64() < m.hot {
		return m.hotSet[rng.IntN(len(m.hotSet))]
	}
	return m.t.distinct(m.offset + i)
}

// joinTags is the comparable form of one answer.
func joinTags(tags []string) string { return strings.Join(tags, "\x1f") }
