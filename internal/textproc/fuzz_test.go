package textproc

import (
	"slices"
	"testing"

	"repro/internal/vector"
)

// FuzzPinnedToReference is the differential fuzz of the preprocessing
// fast path: arbitrary bytes, invalid UTF-8 included, go through Tokenize,
// Terms, Vectorize and VectorizeInto under every pinOptions() mode and
// must match the seed reference implementation (pinning_test.go) exactly,
// float64 bits included. Each mode runs the text twice so TFIDF weighting
// moves past the first-document case. The committed corpus under
// testdata/fuzz replays with every `go test`.
func FuzzPinnedToReference(f *testing.F) {
	for _, doc := range pinCorpus {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Tokenize(text), refTokenize(text); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		for oi, opts := range pinOptions() {
			fast := NewPreprocessor(nil, opts)
			ref := NewPreprocessor(nil, opts)
			stream := NewPreprocessor(nil, opts)
			for _, p := range []*Preprocessor{fast, ref, stream} {
				p.AddSensitiveWords("secret", "classified")
			}
			for pass := 0; pass < 2; pass++ {
				if got, want := fast.Terms(text), refTerms(ref, text); !slices.Equal(got, want) {
					t.Fatalf("opts %d pass %d: Terms(%q) = %q, reference %q", oi, pass, text, got, want)
				}
				got, want := fast.Vectorize(text), refVectorize(ref, text)
				if !got.Equal(want) {
					t.Fatalf("opts %d pass %d: Vectorize(%q):\nfast %v\nref  %v", oi, pass, text, got, want)
				}
				stream.VectorizeInto(text, func(entries []vector.Entry) {
					if !slices.Equal(entries, got.Entries()) {
						t.Fatalf("opts %d pass %d: VectorizeInto(%q) entries %v != Vectorize %v", oi, pass, text, entries, got.Entries())
					}
				})
			}
		}
	})
}
