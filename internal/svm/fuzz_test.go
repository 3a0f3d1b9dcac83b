package svm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vector"
)

// fuzzBytes decodes fuzz input, reading zeros once it is exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// float reads a finite value in [-128, 128) from two little-endian bytes.
func (b *fuzzBytes) float() float64 {
	lo := b.next()
	return float64(int16(uint16(lo)|uint16(b.next())<<8)) / 256
}

// decodeBankQuery decodes fuzz input into a bank of 1..20 tags with at
// most 64 finite weights each, and a query of at most 32 entries whose
// feature ids may run past every model's dimension.
func decodeBankQuery(data []byte) (map[string]*LinearModel, *vector.Sparse) {
	in := fuzzBytes(data)
	bank := make(map[string]*LinearModel)
	for nt := 1 + int(in.next())%20; len(bank) < nt; {
		w := make([]float64, int(in.next())%65)
		for i := range w {
			w[i] = in.float()
		}
		bank[fmt.Sprintf("t%02d", len(bank))] = &LinearModel{W: w, Bias: in.float()}
	}
	q := make(map[int32]float64)
	for n := int(in.next()) % 33; n > 0; n-- {
		id := int32(in.next()) % 80
		q[id] = in.float()
	}
	return bank, vector.FromMap(q)
}

// FuzzFusedLayoutsPinnedToDecision is the fused-scoring identity pin over
// arbitrary banks: CSR, Dense and Blocked must each score every tag
// bit-identically to per-tag Decision.
func FuzzFusedLayoutsPinnedToDecision(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 3, 0, 1, 0, 2, 0, 0, 1, 2, 3},
		{8, 64, 0xff, 0x7f, 0, 0x80, 1, 1, 2, 2, 3, 3, 4, 4},
		{19, 1, 9, 9, 0, 0, 0, 5, 7, 7, 7, 7, 7, 7, 7, 7},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bank, x := decodeBankQuery(data)
		for _, l := range []Layout{LayoutCSR, LayoutDense, LayoutBlocked} {
			fl := NewFusedLinearLayout(bank, l)
			got := fl.ScoreEntriesInto(x.Entries(), nil)
			if len(got) != len(bank) {
				t.Fatalf("layout %v: %d scores for %d tags", l, len(got), len(bank))
			}
			for i, tag := range fl.Tags() {
				if want := bank[tag].Decision(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("layout %v tag %s: fused %v != Decision %v", l, tag, got[i], want)
				}
			}
		}
	})
}
