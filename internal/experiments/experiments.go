// Package experiments regenerates every evaluation scenario of the paper's
// demonstration section (§3) as a parameter sweep over the P2PDMT toolkit.
// Each function returns the result table the demo would have produced; the
// root bench_test.go exposes one benchmark per experiment and
// cmd/experiments regenerates EXPERIMENTS.md from the same code.
//
// Execution model: every (experiment, config) cell of a sweep is an
// independent job — it builds its own simulated network from its own seed —
// so the cells fan out over internal/runner's worker pool and the finished
// rows are appended in declaration order. A parallel sweep is therefore
// byte-identical to a serial one; see Scale.Parallel.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cempar"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/p2pdmt"
	"repro/internal/pace"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// Scale trades experiment size for wall time: 1 = the sizes used in
// EXPERIMENTS.md; smaller values shrink sweeps for quick checks.
type Scale struct {
	// MaxPeers caps network sizes in sweeps.
	MaxPeers int
	// EvalDocs caps scored test documents per run.
	EvalDocs int
	// Parallel is the worker count for a sweep's cells: 0 (the default)
	// uses every core, 1 runs the sweep fully serially — including the
	// simulations' internal training phases — and any other value pins
	// the pool size. Tables are byte-identical at every setting.
	Parallel int
	// Seed, when non-zero, re-seeds the whole sweep: every cell derives
	// its own independent seed from it (and the cell's coordinates) via
	// runner.DeriveSeed, so trials of the same sweep never share random
	// streams. 0 reproduces the committed EXPERIMENTS.md tables, which
	// run every cell at the paper reproduction's fixed seed.
	Seed int64
	// Shards is the number of event-loop shards inside each cell's
	// simulated network (conservative PDES). 0 or 1 keeps the simulations
	// serial — the right choice when Parallel already fans the cells over
	// the cores; values > 1 parallelize within each simulation, which pays
	// off for few, very large networks. Tables are byte-identical at every
	// setting.
	Shards int
}

// DefaultScale reproduces the committed EXPERIMENTS.md numbers.
func DefaultScale() Scale { return Scale{MaxPeers: 64, EvalDocs: 50} }

// QuickScale is a fast smoke-test scale for CI.
func QuickScale() Scale { return Scale{MaxPeers: 16, EvalDocs: 20} }

const seed = 42

// cellSeed returns the base seed for one experiment cell, identified by
// its coordinates (experiment id, sweep variables, trial index). With the
// default Scale.Seed the committed tables' fixed seed is used everywhere;
// a custom Scale.Seed gives every cell an independent derived seed.
func (sc Scale) cellSeed(coords ...string) int64 {
	if sc.Seed == 0 {
		return seed
	}
	return runner.DeriveSeed(sc.Seed, coords...)
}

// cellJob computes one cell of a sweep and returns the rows it contributes
// to the experiment table.
type cellJob func() ([][]any, error)

// runCells executes jobs over the scale's worker pool and appends their
// rows to tbl in declaration order, so a parallel sweep renders the exact
// bytes of a serial one. Cells run their simulations' internal CPU phases
// serially (the sweep already owns the cores); the per-peer training
// parallelism of internal/p2pdmt serves direct library users instead.
func runCells(tbl *p2pdmt.Table, sc Scale, jobs []cellJob) error {
	rows, err := runner.Map(len(jobs), sc.Parallel, func(i int) ([][]any, error) {
		return jobs[i]()
	})
	if err != nil {
		return err
	}
	for _, cellRows := range rows {
		for _, row := range cellRows {
			tbl.AddRow(row...)
		}
	}
	return nil
}

func baseConfig(proto p2pdmt.ProtocolKind, peers int, sc Scale, coords ...string) p2pdmt.Config {
	return p2pdmt.Config{
		Peers:    peers,
		Protocol: proto,
		EvalDocs: sc.EvalDocs,
		Seed:     sc.cellSeed(coords...),
		Parallel: 1, // cells are the unit of parallelism in a sweep
		Shards:   sc.Shards,
	}
}

var allProtocols = []p2pdmt.ProtocolKind{
	p2pdmt.ProtoLocal, p2pdmt.ProtoCentralized, p2pdmt.ProtoPACE, p2pdmt.ProtoCEMPaR,
}

func peerSweep(sc Scale) []int {
	all := []int{8, 16, 32, 64, 128, 256, 512}
	var out []int
	for _, n := range all {
		if n <= sc.MaxPeers {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{8}
	}
	return out
}

// midPeers caps the mid-sized network most single-variable sweeps use.
func midPeers(sc Scale, n int) int {
	if n > sc.MaxPeers {
		return sc.MaxPeers
	}
	return n
}

// E1AccuracyVsPeers sweeps network size for every protocol: the demo's
// ">500 peers" scaling scenario. Expected shape: CEMPaR tracks the
// centralized ceiling, PACE sits between centralized and local-only, and
// accuracy does not degrade as N grows.
func E1AccuracyVsPeers(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E1: tagging accuracy vs network size",
		"peers", "protocol", "microF1", "macroF1", "precision", "recall", "P@1")
	var jobs []cellJob
	for _, n := range peerSweep(sc) {
		for _, proto := range allProtocols {
			jobs = append(jobs, func() ([][]any, error) {
				res, err := p2pdmt.Run(baseConfig(proto, n, sc, "E1", string(proto), fmt.Sprint(n)))
				if err != nil {
					return nil, fmt.Errorf("E1 %s N=%d: %w", proto, n, err)
				}
				return [][]any{{n, res.Protocol, res.Eval.MicroF1(), res.Eval.MacroF1(),
					res.Eval.MicroPrecision(), res.Eval.MicroRecall(), res.MeanP1}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E2CommunicationCost sweeps network size and reports the traffic of the
// training and query phases. Expected shape: centralized training ships all
// raw documents to one coordinator (hotspot); CEMPaR ships each peer's
// support vectors once; PACE pays an O(N^2) model broadcast but zero bytes
// per query.
func E2CommunicationCost(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E2: communication cost vs network size",
		"peers", "protocol", "trainMsgs", "trainBytes", "trainBytes/peer",
		"queryMsgs", "queryBytes/query")
	var jobs []cellJob
	for _, n := range peerSweep(sc) {
		for _, proto := range []p2pdmt.ProtocolKind{
			p2pdmt.ProtoCentralized, p2pdmt.ProtoPACE, p2pdmt.ProtoCEMPaR,
		} {
			jobs = append(jobs, func() ([][]any, error) {
				res, err := p2pdmt.Run(baseConfig(proto, n, sc, "E2", string(proto), fmt.Sprint(n)))
				if err != nil {
					return nil, fmt.Errorf("E2 %s N=%d: %w", proto, n, err)
				}
				perQuery := float64(0)
				if res.TotalQueries > 0 {
					perQuery = float64(res.QueryCost.Bytes) / float64(res.TotalQueries)
				}
				return [][]any{{n, res.Protocol, res.TrainCost.Messages,
					metrics.FormatBytes(res.TrainCost.Bytes),
					metrics.FormatBytes(int64(res.TrainCost.BytesPerPeer())),
					res.QueryCost.Messages, metrics.FormatBytes(int64(perQuery))}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E3TrainingFraction sweeps the labeled fraction around the demo's 20%
// split. Expected shape: accuracy rises with more labels and the
// collaborative protocols benefit more steeply than local-only (they pool
// everyone's labels).
func E3TrainingFraction(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E3: accuracy vs training fraction (demo used 20%)",
		"trainFrac", "protocol", "microF1", "precision", "recall")
	n := midPeers(sc, 32)
	var jobs []cellJob
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.4} {
		for _, proto := range []p2pdmt.ProtocolKind{
			p2pdmt.ProtoLocal, p2pdmt.ProtoCentralized, p2pdmt.ProtoCEMPaR,
		} {
			jobs = append(jobs, func() ([][]any, error) {
				cfg := baseConfig(proto, n, sc, "E3", string(proto), fmt.Sprint(frac))
				cfg.TrainFrac = frac
				res, err := p2pdmt.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("E3 %s frac=%v: %w", proto, frac, err)
				}
				return [][]any{{frac, res.Protocol, res.Eval.MicroF1(),
					res.Eval.MicroPrecision(), res.Eval.MicroRecall()}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E4Churn sweeps churn intensity (the demo's "churn/attrition rate"
// scenario). Expected shape: the centralized tagger fails whenever its
// coordinator is down (single point of failure); CEMPaR keeps answering
// after re-stabilization; PACE never fails an issued query because
// prediction is local.
func E4Churn(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E4: fault tolerance under churn",
		"meanUptime", "protocol", "answered", "failed", "skippedOffline", "microF1")
	n := midPeers(sc, 32)
	levels := []struct {
		name string
		mdl  simnet.SessionModel
	}{
		{"none", nil},
		{"10m", simnet.ExponentialChurn{MeanUptime: 10 * time.Minute, MeanDowntime: time.Minute}},
		{"4m", simnet.ExponentialChurn{MeanUptime: 4 * time.Minute, MeanDowntime: time.Minute}},
		{"2m", simnet.ExponentialChurn{MeanUptime: 2 * time.Minute, MeanDowntime: time.Minute}},
	}
	var jobs []cellJob
	for _, lvl := range levels {
		for _, proto := range []p2pdmt.ProtocolKind{
			p2pdmt.ProtoCentralized, p2pdmt.ProtoPACE, p2pdmt.ProtoCEMPaR,
		} {
			jobs = append(jobs, func() ([][]any, error) {
				cfg := baseConfig(proto, n, sc, "E4", string(proto), lvl.name)
				cfg.Churn = lvl.mdl
				res, err := p2pdmt.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("E4 %s churn=%s: %w", proto, lvl.name, err)
				}
				answered := res.TotalQueries - res.FailedQueries
				return [][]any{{lvl.name, res.Protocol, answered, res.FailedQueries,
					res.SkippedOffline, res.Eval.MicroF1()}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E5SizeSkew sweeps the Zipf exponent of per-peer collection sizes (the
// demo's "size distribution of training data" scenario). Expected shape:
// collaborative protocols degrade gracefully as data concentrates on few
// peers, because pooled knowledge still reaches everyone.
func E5SizeSkew(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E5: accuracy vs per-peer data-size skew (Zipf)",
		"zipf", "protocol", "microF1", "precision", "recall")
	n := midPeers(sc, 32)
	var jobs []cellJob
	for _, z := range []float64{0, 0.5, 1.0, 1.5} {
		for _, proto := range []p2pdmt.ProtocolKind{
			p2pdmt.ProtoPACE, p2pdmt.ProtoCEMPaR,
		} {
			jobs = append(jobs, func() ([][]any, error) {
				cfg := baseConfig(proto, n, sc, "E5", string(proto), fmt.Sprint(z))
				cfg.Distribution = p2pdmt.Distribution{SizeZipf: z, Seed: cfg.Seed + 5}
				res, err := p2pdmt.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("E5 %s zipf=%v: %w", proto, z, err)
				}
				return [][]any{{z, res.Protocol, res.Eval.MicroF1(),
					res.Eval.MicroPrecision(), res.Eval.MicroRecall()}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E6ClassSkew sweeps per-user tag concentration (the demo's "class
// distribution" scenario). Measured shape (documented in EXPERIMENTS.md):
// as users specialize, local-only models improve — personal tag habits are
// easy to learn — while pooled global models suffer from conflicting
// contexts; this is precisely the conflict the paper's tag-refinement loop
// exists to resolve.
func E6ClassSkew(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E6: accuracy vs per-user class skew",
		"userBias", "protocol", "microF1", "precision", "recall")
	n := midPeers(sc, 16)
	var jobs []cellJob
	for _, bias := range []float64{10, 1, 0.3} {
		for _, proto := range allProtocols {
			jobs = append(jobs, func() ([][]any, error) {
				cfg := baseConfig(proto, n, sc, "E6", string(proto), fmt.Sprint(bias))
				cfg.Corpus = dataset.DefaultConfig()
				cfg.Corpus.DocsPerUserMin = 40
				cfg.Corpus.DocsPerUserMax = 80
				cfg.Corpus.UserBias = bias
				cfg.Corpus.Seed = cfg.Seed + 101
				res, err := p2pdmt.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("E6 %s bias=%v: %w", proto, bias, err)
				}
				return [][]any{{bias, res.Protocol, res.Eval.MicroF1(),
					res.Eval.MicroPrecision(), res.Eval.MicroRecall()}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E7Topology compares the structured (DHT) and unstructured overlays on
// the two network primitives P2PDocTagger needs: disseminating a model to
// every peer and locating a specific peer (super-peer lookup). Expected
// shape: flooding reaches everyone at O(edges) messages, gossip is cheaper
// but probabilistic, and DHT lookups cost O(log N) messages.
func E7Topology(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E7: structured vs unstructured overlay primitives",
		"peers", "primitive", "mechanism", "messages", "coverage/hops")
	var jobs []cellJob
	for _, n := range peerSweep(sc) {
		// Dissemination: flooding vs gossip on a random graph.
		for _, mode := range []string{"flood", "gossip"} {
			jobs = append(jobs, func() ([][]any, error) {
				cellSeed := sc.cellSeed("E7", mode, fmt.Sprint(n))
				net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(20 * time.Millisecond), Seed: cellSeed, Shards: sc.Shards})
				ids := make([]simnet.NodeID, n)
				for i := range ids {
					ids[i] = simnet.NodeID(i)
				}
				ov := overlay.New(net, ids, nil, overlay.Options{Degree: 6, Seed: cellSeed})
				if mode == "flood" {
					ov.Flood(0, "model", 1000, nil, 64)
				} else {
					ov.Gossip(0, "model", 1000, nil, 2)
				}
				net.Run(0)
				cov := ov.Coverage(ov.LastBroadcastID())
				return [][]any{{n, "disseminate", mode, net.Stats().MessagesSent,
					fmt.Sprintf("%d/%d peers", cov, n)}}, nil
			})
		}
		// Locate: DHT routed lookup.
		jobs = append(jobs, func() ([][]any, error) {
			net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(20 * time.Millisecond), Seed: sc.cellSeed("E7", "dht", fmt.Sprint(n)), Shards: sc.Shards})
			ids := make([]simnet.NodeID, n)
			for i := range ids {
				ids[i] = simnet.NodeID(i)
			}
			ring := newDHT(net, ids)
			net.Run(0)
			net.ResetStats()
			// One hop slot per lookup: answers land at their origins,
			// which a sharded network runs concurrently.
			const lookups = 20
			hops := make([]int, lookups)
			for q := 0; q < lookups; q++ {
				key := fmt.Sprintf("key-%d", q)
				_ = ring.lookup(simnet.NodeID(q%n), key, &hops[q])
			}
			net.Run(0)
			totalHops := 0
			for _, h := range hops {
				totalHops += h
			}
			return [][]any{{n, "locate", "dht",
				net.Stats().MessagesSent / int64(lookups),
				fmt.Sprintf("%.1f hops avg", float64(totalHops)/float64(lookups))}}, nil
		})
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E8PaceTopK sweeps PACE's ensemble size and retrieval mechanism (LSH vs
// exact scan) — the top-k design choice of §2. Expected shape: small k
// wins (nearest models are the adapted ones); LSH matches the exact scan's
// accuracy while examining a fraction of the centroids.
func E8PaceTopK(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E8: PACE top-k model retrieval",
		"topK", "retrieval", "microF1", "precision", "recall")
	n := midPeers(sc, 16)
	var jobs []cellJob
	for _, k := range []int{1, 3, 5, 8, 16} {
		for _, scan := range []bool{false, true} {
			jobs = append(jobs, func() ([][]any, error) {
				mode := "lsh"
				if scan {
					mode = "scan"
				}
				cfg := baseConfig(p2pdmt.ProtoPACE, n, sc, "E8", mode, fmt.Sprint(k))
				cfg.PACE = pace.Config{TopK: k, DisableLSH: scan}
				res, err := p2pdmt.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("E8 k=%d scan=%v: %w", k, scan, err)
				}
				return [][]any{{k, mode, res.Eval.MicroF1(),
					res.Eval.MicroPrecision(), res.Eval.MicroRecall()}}, nil
			})
		}
	}
	return tbl, runCells(tbl, sc, jobs)
}

// E9ConfidenceSlider sweeps the tag-assignment threshold — the
// "Confidence" slider of Fig. 3. Expected shape: the classic
// precision/recall trade-off, with F1 peaking near 0.4-0.5 for calibrated
// scores.
func E9ConfidenceSlider(sc Scale) (*p2pdmt.Table, error) {
	tbl := p2pdmt.NewTable("E9: confidence slider (threshold vs precision/recall)",
		"threshold", "protocol", "microF1", "precision", "recall", "tags/doc")
	n := midPeers(sc, 16)
	var jobs []cellJob
	for _, th := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		jobs = append(jobs, func() ([][]any, error) {
			cfg := baseConfig(p2pdmt.ProtoCEMPaR, n, sc, "E9", fmt.Sprint(th))
			cfg.CEMPaR = cempar.Config{Regions: 2, Weighted: true}
			cfg.Threshold = th
			res, err := p2pdmt.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("E9 th=%v: %w", th, err)
			}
			// tags/doc approximated from recall vs precision balance is
			// noisy; report the direct measure instead.
			return [][]any{{th, res.Protocol, res.Eval.MicroF1(),
				res.Eval.MicroPrecision(), res.Eval.MicroRecall(),
				fmt.Sprintf("%.2f", tagsPerDoc(res))}}, nil
		})
	}
	return tbl, runCells(tbl, sc, jobs)
}

// tagsPerDoc is the average number of predicted tags per scored document:
// (TP+FP)/docs.
func tagsPerDoc(res *p2pdmt.Result) float64 {
	docs := float64(res.Eval.Docs())
	if docs == 0 {
		return 0
	}
	tp, fp, _ := res.Eval.Counts()
	return (tp + fp) / docs
}
