// Package vector implements sparse feature vectors used throughout the
// tagging pipeline: documents, SVM weight vectors and cluster centroids are
// all Sparse values. Entries are kept sorted by feature id so that dot
// products, merges and serialization are deterministic and linear-time.
package vector

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Entry is a single (feature id, weight) pair of a sparse vector.
type Entry struct {
	Index int32
	Value float64
}

// Sparse is a sparse vector: a slice of entries sorted by ascending Index
// with no duplicate indices and (by convention) no explicit zeros. The zero
// value is an empty vector ready to use.
type Sparse struct {
	entries []Entry
}

// New returns a sparse vector built from parallel index/value slices.
// Duplicate indices are summed; zero values are dropped.
func New(indices []int32, values []float64) (*Sparse, error) {
	if len(indices) != len(values) {
		return nil, fmt.Errorf("vector: %d indices but %d values", len(indices), len(values))
	}
	m := make(map[int32]float64, len(indices))
	for i, idx := range indices {
		if idx < 0 {
			return nil, fmt.Errorf("vector: negative feature index %d", idx)
		}
		m[idx] += values[i]
	}
	return FromMap(m), nil
}

// FromMap returns a sparse vector with the non-zero entries of m.
func FromMap(m map[int32]float64) *Sparse {
	s := &Sparse{entries: make([]Entry, 0, len(m))}
	for idx, v := range m {
		if v != 0 {
			s.entries = append(s.entries, Entry{idx, v})
		}
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Index < s.entries[j].Index })
	return s
}

// FromEntries returns a sparse vector from entries that must already be
// sorted by ascending index with no duplicates. It takes ownership of the
// slice. This is the fast path used by deserialization.
func FromEntries(entries []Entry) (*Sparse, error) {
	for i := 1; i < len(entries); i++ {
		if entries[i].Index <= entries[i-1].Index {
			return nil, fmt.Errorf("vector: entries not strictly sorted at position %d", i)
		}
	}
	if len(entries) > 0 && entries[0].Index < 0 {
		return nil, fmt.Errorf("vector: negative feature index %d", entries[0].Index)
	}
	return &Sparse{entries: entries}, nil
}

// Zero returns an empty sparse vector.
func Zero() *Sparse { return &Sparse{} }

// Borrow wraps entries — already sorted by ascending index with no
// duplicates, which is NOT validated — as a Sparse value without copying.
// It exists for the query path, where entries live in pooled scratch: the
// view (and anything aliasing it) must not outlive the entries it borrows,
// so it is returned by value for callers to place in their own storage
// and never retain. A protocol.Classifier receiving one in Predict clones
// it before deferring the query.
func Borrow(entries []Entry) Sparse { return Sparse{entries: entries} }

// Len reports the number of stored (non-zero) entries.
func (s *Sparse) Len() int { return len(s.entries) }

// Entries exposes the underlying sorted entries. Callers must not modify
// the returned slice.
func (s *Sparse) Entries() []Entry { return s.entries }

// MaxIndex returns the largest feature id present, or -1 for an empty vector.
func (s *Sparse) MaxIndex() int32 {
	if len(s.entries) == 0 {
		return -1
	}
	return s.entries[len(s.entries)-1].Index
}

// At returns the value stored at feature id idx (0 when absent).
func (s *Sparse) At(idx int32) float64 {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Index >= idx })
	if i < len(s.entries) && s.entries[i].Index == idx {
		return s.entries[i].Value
	}
	return 0
}

// Clone returns a deep copy.
func (s *Sparse) Clone() *Sparse {
	e := make([]Entry, len(s.entries))
	copy(e, s.entries)
	return &Sparse{entries: e}
}

// Dot returns the inner product <s, t>.
func (s *Sparse) Dot(t *Sparse) float64 {
	var sum float64
	a, b := s.entries, t.entries
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Index == b[j].Index:
			sum += a[i].Value * b[j].Value
			i++
			j++
		case a[i].Index < b[j].Index:
			i++
		default:
			j++
		}
	}
	return sum
}

// DotDense returns the inner product of s with a dense weight slice w,
// treating out-of-range indices as zero weight.
func (s *Sparse) DotDense(w []float64) float64 {
	var sum float64
	for _, e := range s.entries {
		if int(e.Index) < len(w) {
			sum += e.Value * w[e.Index]
		}
	}
	return sum
}

// AddDense accumulates alpha*s into the dense slice w, which must be long
// enough to hold MaxIndex()+1 entries.
func (s *Sparse) AddDense(w []float64, alpha float64) {
	for _, e := range s.entries {
		w[e.Index] += alpha * e.Value
	}
}

// Norm returns the Euclidean norm.
func (s *Sparse) Norm() float64 {
	var sum float64
	for _, e := range s.entries {
		sum += e.Value * e.Value
	}
	return math.Sqrt(sum)
}

// SquaredNorm returns the squared Euclidean norm.
func (s *Sparse) SquaredNorm() float64 {
	var sum float64
	for _, e := range s.entries {
		sum += e.Value * e.Value
	}
	return sum
}

// Scale returns a new vector alpha*s. Scaling by zero yields an empty vector.
func (s *Sparse) Scale(alpha float64) *Sparse {
	if alpha == 0 {
		return Zero()
	}
	out := s.Clone()
	for i := range out.entries {
		out.entries[i].Value *= alpha
	}
	return out
}

// Add returns s + t as a new vector.
func (s *Sparse) Add(t *Sparse) *Sparse { return s.Axpy(1, t) }

// Sub returns s - t as a new vector.
func (s *Sparse) Sub(t *Sparse) *Sparse { return s.Axpy(-1, t) }

// Axpy returns s + alpha*t as a new vector, dropping entries that cancel to
// exactly zero.
func (s *Sparse) Axpy(alpha float64, t *Sparse) *Sparse {
	a, b := s.entries, t.entries
	out := make([]Entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Index < b[j].Index):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].Index < a[i].Index:
			if v := alpha * b[j].Value; v != 0 {
				out = append(out, Entry{b[j].Index, v})
			}
			j++
		default:
			if v := a[i].Value + alpha*b[j].Value; v != 0 {
				out = append(out, Entry{a[i].Index, v})
			}
			i++
			j++
		}
	}
	return &Sparse{entries: out}
}

// Normalize returns s scaled to unit Euclidean norm; the empty vector
// normalizes to itself.
func (s *Sparse) Normalize() *Sparse {
	n := s.Norm()
	if n == 0 {
		return Zero()
	}
	return s.Scale(1 / n)
}

// Cosine returns the cosine similarity of s and t in [-1, 1]; it is 0 when
// either vector is empty.
func (s *Sparse) Cosine(t *Sparse) float64 {
	ns, nt := s.Norm(), t.Norm()
	if ns == 0 || nt == 0 {
		return 0
	}
	c := s.Dot(t) / (ns * nt)
	// Clamp rounding noise so downstream acos/threshold logic is safe.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// EuclideanDistance returns ||s - t||.
func (s *Sparse) EuclideanDistance(t *Sparse) float64 {
	d2 := s.SquaredNorm() + t.SquaredNorm() - 2*s.Dot(t)
	if d2 < 0 {
		d2 = 0 // rounding
	}
	return math.Sqrt(d2)
}

// Equal reports whether s and t store identical entries.
func (s *Sparse) Equal(t *Sparse) bool {
	if len(s.entries) != len(t.entries) {
		return false
	}
	for i := range s.entries {
		if s.entries[i] != t.entries[i] {
			return false
		}
	}
	return true
}

// WireSize returns the number of bytes this vector occupies in the
// simulator's serialized form (4-byte index + 8-byte value per entry plus a
// 4-byte length header). The network simulator charges this amount.
func (s *Sparse) WireSize() int { return 4 + 12*len(s.entries) }

// String renders the vector as "{idx:val, ...}" for debugging.
func (s *Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", e.Index, e.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Mean returns the centroid (arithmetic mean) of vs; the mean of an empty
// set is the zero vector.
func Mean(vs []*Sparse) *Sparse {
	if len(vs) == 0 {
		return Zero()
	}
	acc := map[int32]float64{}
	for _, v := range vs {
		for _, e := range v.entries {
			acc[e.Index] += e.Value
		}
	}
	inv := 1 / float64(len(vs))
	for k := range acc {
		acc[k] *= inv
	}
	return FromMap(acc)
}
