package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// randSparse builds a deterministic random sparse vector with nnz entries
// below dim.
func randSparse(rng *rand.Rand, dim, nnz int) *vector.Sparse {
	m := make(map[int32]float64, nnz)
	for len(m) < nnz {
		m[int32(rng.Intn(dim))] = rng.NormFloat64()
	}
	return vector.FromMap(m)
}

// randBank builds a per-tag LinearModel bank with weights of varying
// dimensionality (some tags deliberately shorter than the widest,
// exercising the out-of-range skip). fill is the fraction of non-zero
// weights per model: low fill selects the CSR layout, high fill the
// dense-row layout.
func randBank(rng *rand.Rand, tags, dim int, fill float64) map[string]*LinearModel {
	bank := make(map[string]*LinearModel, tags)
	for t := 0; t < tags; t++ {
		d := dim/2 + rng.Intn(dim/2+1)
		w := make([]float64, d)
		for i := range w {
			if rng.Float64() < fill {
				w[i] = rng.NormFloat64()
			}
		}
		bank[fmt.Sprintf("tag%02d", t)] = &LinearModel{W: w, Bias: rng.NormFloat64()}
	}
	return bank
}

// TestFusedScoresPinnedToDecision is the fused-scoring identity pin: for
// random banks and documents, under automatic layout selection,
// ScoreEntriesInto must equal per-tag Decision on exact float64 comparison — same
// accumulation order, not a tolerance — and the auto rule must pick the
// expected layout for each bank shape.
func TestFusedScoresPinnedToDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		fill := 0.05 // CSR layout
		if trial%2 == 1 {
			fill = 0.9 // dense: blocked at >= blockedMinTags tags, scalar rows below
		}
		nt := 1 + rng.Intn(24)
		bank := randBank(rng, nt, 64+rng.Intn(192), fill)
		f := NewFusedLinear(bank)
		if f.NumTags() != len(bank) {
			t.Fatalf("trial %d: %d fused tags for a %d-tag bank", trial, f.NumTags(), len(bank))
		}
		want := LayoutCSR
		if fill > 0.5 {
			if nt >= blockedMinTags {
				want = LayoutBlocked
			} else {
				want = LayoutDense
			}
		}
		if got := f.Layout(); got != want {
			t.Fatalf("trial %d: fill %.2f tags %d chose layout %v, want %v", trial, fill, nt, got, want)
		}
		var buf []float64
		for q := 0; q < 8; q++ {
			x := randSparse(rng, 300, 1+rng.Intn(40))
			buf = f.ScoreEntriesInto(x.Entries(), buf)
			for i, tag := range f.Tags() {
				want := bank[tag].Decision(x)
				if buf[i] != want {
					t.Fatalf("trial %d tag %s: fused %v != Decision %v (diff %g)",
						trial, tag, buf[i], want, buf[i]-want)
				}
			}
		}
	}
}

// TestFusedLayoutsPinnedToDecision forces every layout over the same
// randomized banks and pins each one bit-identical to per-tag Decision,
// and the layouts to each other. Tag counts straddle the block-width
// boundaries (1, 4, 7, 8, 9, 16, 23) to exercise zero-padded tails.
func TestFusedLayoutsPinnedToDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layouts := []Layout{LayoutCSR, LayoutDense, LayoutBlocked}
	for _, nt := range []int{1, 4, 7, 8, 9, 16, 23} {
		for _, fill := range []float64{0.1, 0.5, 0.95} {
			bank := randBank(rng, nt, 48+rng.Intn(160), fill)
			fused := make([]*FusedLinear, len(layouts))
			for i, l := range layouts {
				fused[i] = NewFusedLinearLayout(bank, l)
				if got := fused[i].Layout(); got != l {
					t.Fatalf("tags %d fill %.2f: forced %v, built %v", nt, fill, l, got)
				}
			}
			bufs := make([][]float64, len(layouts))
			for q := 0; q < 6; q++ {
				x := randSparse(rng, 280, 1+rng.Intn(50))
				for i, f := range fused {
					bufs[i] = f.ScoreEntriesInto(x.Entries(), bufs[i])
					if len(bufs[i]) != nt {
						t.Fatalf("layout %v: %d scores for %d tags", layouts[i], len(bufs[i]), nt)
					}
				}
				for ti, tag := range fused[0].Tags() {
					want := bank[tag].Decision(x)
					for i, l := range layouts {
						if bufs[i][ti] != want {
							t.Fatalf("tags %d fill %.2f layout %v tag %s: %v != Decision %v",
								nt, fill, l, tag, bufs[i][ti], want)
						}
					}
				}
			}
		}
	}
}

// TestScoreEntriesIntoStreaming: the streaming terminal over raw entries
// equals per-tag Decision over the materialized vector, reusing one
// buffer across documents, including entries beyond every model's
// dimension and the empty document.
func TestScoreEntriesIntoStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bank := randBank(rng, 12, 128, 0.8)
	for _, l := range []Layout{LayoutCSR, LayoutDense, LayoutBlocked} {
		f := NewFusedLinearLayout(bank, l)
		var b []float64
		for q := 0; q < 10; q++ {
			x := randSparse(rng, 400, 1+rng.Intn(60))
			b = f.ScoreEntriesInto(x.Entries(), b)
			for i, tag := range f.Tags() {
				if want := bank[tag].Decision(x); b[i] != want {
					t.Fatalf("layout %v tag %s: ScoreEntriesInto %v != Decision %v", l, tag, b[i], want)
				}
			}
		}
		b = f.ScoreEntriesInto(nil, b)
		for i, tag := range f.Tags() {
			if want := bank[tag].Bias; b[i] != want {
				t.Fatalf("layout %v empty doc tag %s: %v != bias %v", l, tag, b[i], want)
			}
		}
	}
}

// TestFusedEdgeCases: empty bank, empty document, document wider than
// every model.
func TestFusedEdgeCases(t *testing.T) {
	if f := NewFusedLinear(nil); f != nil {
		t.Error("NewFusedLinear(empty) != nil")
	}
	bank := map[string]*LinearModel{
		"a": {W: []float64{1, 0, 2}, Bias: 0.5},
		"b": {W: []float64{0, -3}, Bias: -1},
	}
	f := NewFusedLinear(bank)
	empty := vector.Zero()
	got := f.ScoreEntriesInto(empty.Entries(), nil)
	for i, tag := range f.Tags() {
		if want := bank[tag].Decision(empty); got[i] != want {
			t.Errorf("empty doc, tag %s: %v != %v", tag, got[i], want)
		}
	}
	wide, _ := vector.New([]int32{1, 2, 500}, []float64{2, 3, 4})
	got = f.ScoreEntriesInto(wide.Entries(), nil)
	for i, tag := range f.Tags() {
		if want := bank[tag].Decision(wide); got[i] != want {
			t.Errorf("wide doc, tag %s: %v != %v", tag, got[i], want)
		}
	}
}

// refKernelDecision is the seed KernelModel.Decision: per-SV Kernel.Eval
// with no cached norms.
func refKernelDecision(m *KernelModel, x *vector.Sparse) float64 {
	sum := m.Bias
	for _, sv := range m.SVs {
		sum += sv.Coeff * m.Kernel.Eval(sv.X, x)
	}
	return sum
}

// TestKernelDecisionPinnedToReference: the cached-norm RBF fast path (and
// the untouched linear/poly paths) must match the naive per-SV evaluation
// bit for bit, with and without Precompute.
func TestKernelDecisionPinnedToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kernels := []Kernel{
		{Kind: KernelRBF, Gamma: 1},
		{Kind: KernelRBF, Gamma: 0.25},
		{Kind: KernelRBF}, // Gamma 0 defaults to 1
		{Kind: KernelLinear},
		{Kind: KernelPoly, Gamma: 0.5, Coef0: 1, Degree: 3},
	}
	for _, k := range kernels {
		m := &KernelModel{Kernel: k, Bias: rng.NormFloat64()}
		for i := 0; i < 20; i++ {
			m.SVs = append(m.SVs, SupportVector{
				X:     randSparse(rng, 120, 1+rng.Intn(25)),
				Coeff: rng.NormFloat64(),
			})
		}
		for q := 0; q < 10; q++ {
			x := randSparse(rng, 150, 1+rng.Intn(30))
			want := refKernelDecision(m, x)
			if got := m.Decision(x); got != want {
				t.Fatalf("kernel %v (no cache): Decision %v != reference %v", k, got, want)
			}
			m.Precompute()
			if got := m.Decision(x); got != want {
				t.Fatalf("kernel %v (cached norms): Decision %v != reference %v", k, got, want)
			}
		}
	}
}

// TestTrainKernelPrecomputes: models from TrainKernel carry the norm cache.
func TestTrainKernelPrecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var data []Example
	for i := 0; i < 30; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		data = append(data, Example{X: randSparse(rng, 40, 5), Y: y})
	}
	m, err := TrainKernel(data, KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.svNorms) != len(m.SVs) {
		t.Fatalf("TrainKernel left %d cached norms for %d SVs", len(m.svNorms), len(m.SVs))
	}
	for i, sv := range m.SVs {
		if m.svNorms[i] != sv.X.SquaredNorm() {
			t.Fatalf("cached norm %d = %v, want %v", i, m.svNorms[i], sv.X.SquaredNorm())
		}
	}
	// A stale cache (SVs mutated after Precompute) must not corrupt
	// decisions: Decision falls back to per-query norms.
	m.SVs = append(m.SVs, SupportVector{X: randSparse(rng, 40, 5), Coeff: 0.5})
	x := randSparse(rng, 40, 8)
	if got, want := m.Decision(x), refKernelDecision(m, x); got != want {
		t.Fatalf("stale cache: Decision %v != reference %v", got, want)
	}
}

// BenchmarkFusedScoring compares scoring a T-tag bank per tag against the
// fused single-pass matrix, for both bank shapes: "sparse" is a pruned
// wide-universe ensemble (CSR layout), "dense" a shared-pool bank where
// nearly every feature carries a weight in every tag (dense-row layout).
func BenchmarkFusedScoring(b *testing.B) {
	for _, shape := range []struct {
		name string
		fill float64
	}{
		{"sparse", 0.12},
		{"dense", 0.95},
	} {
		rng := rand.New(rand.NewSource(5))
		const tags, dim = 32, 4096
		bank := make(map[string]*LinearModel, tags)
		for t := 0; t < tags; t++ {
			w := make([]float64, dim)
			for i := range w {
				if rng.Float64() < shape.fill {
					w[i] = rng.NormFloat64()
				}
			}
			bank[fmt.Sprintf("tag%02d", t)] = &LinearModel{W: w, Bias: rng.NormFloat64()}
		}
		f := NewFusedLinear(bank)
		doc := randSparse(rng, dim, 120)
		order := f.Tags()

		b.Run(shape.name+"/pertag", func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				for _, tag := range order {
					sink += bank[tag].Decision(doc)
				}
			}
			if math.IsNaN(sink) {
				b.Fatal("nan")
			}
		})
		b.Run(shape.name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]float64, tags)
			var sink float64
			for i := 0; i < b.N; i++ {
				buf = f.ScoreEntriesInto(doc.Entries(), buf)
				sink += buf[0]
			}
			if math.IsNaN(sink) {
				b.Fatal("nan")
			}
		})
	}
}

// BenchmarkFusedLayouts scores the same dense bank through the scalar
// dense rows and the 8-wide blocked layout — the head-to-head the blocked
// layout exists for.
func BenchmarkFusedLayouts(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const tags, dim = 32, 4096
	bank := make(map[string]*LinearModel, tags)
	for t := 0; t < tags; t++ {
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		bank[fmt.Sprintf("tag%02d", t)] = &LinearModel{W: w, Bias: rng.NormFloat64()}
	}
	doc := randSparse(rng, dim, 120)
	for _, l := range []Layout{LayoutDense, LayoutBlocked} {
		f := NewFusedLinearLayout(bank, l)
		b.Run(l.String(), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]float64, 0, tags+blockWidth)
			var sink float64
			for i := 0; i < b.N; i++ {
				buf = f.ScoreEntriesInto(doc.Entries(), buf)
				sink += buf[0]
			}
			if math.IsNaN(sink) {
				b.Fatal("nan")
			}
		})
	}
}

// BenchmarkKernelDecision measures the RBF decision with and without the
// support-vector norm cache.
func BenchmarkKernelDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := &KernelModel{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}}
	for i := 0; i < 64; i++ {
		m.SVs = append(m.SVs, SupportVector{X: randSparse(rng, 2048, 80), Coeff: rng.NormFloat64()})
	}
	doc := randSparse(rng, 2048, 120)
	b.Run("uncached", func(b *testing.B) {
		m.svNorms = nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refKernelDecision(m, doc)
		}
	})
	b.Run("cached", func(b *testing.B) {
		m.Precompute()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Decision(doc)
		}
	})
}
