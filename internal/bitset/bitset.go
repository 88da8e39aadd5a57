// Package bitset implements dense bitsets over contract identifiers.
// The prefilter's pruning conditions are monotone set expressions
// (unions and intersections, §4.1); evaluating them over bitsets costs
// a few words per operation regardless of database size.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset. The zero value is an empty set of
// capacity 0; use New or grow via Resize.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity n bits.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// All returns the set {0, …, n-1}.
func All(n int) Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears bits above the capacity so Count and Equal stay exact.
func (s *Set) trim() {
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Len returns the capacity in bits.
func (s Set) Len() int { return s.n }

// Add inserts i; it panics if i is out of range, which indicates a
// bookkeeping error in the caller.
func (s Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i/64] |= 1 << uint(i%64)
}

// Has reports membership of i; out-of-range indices are absent.
func (s Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := Set{words: append([]uint64(nil), s.words...), n: s.n}
	return out
}

// UnionWith adds every member of t to s. The sets must have equal
// capacity.
func (s Set) UnionWith(t Set) {
	s.checkCompat(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes members of s not in t.
func (s Set) IntersectWith(t Set) {
	s.checkCompat(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// UnionWithIntersection adds every member of t ∩ u to s, without
// materializing the intersection. The sets must have equal capacity.
func (s Set) UnionWithIntersection(t, u Set) {
	s.checkCompat(t)
	s.checkCompat(u)
	for i, w := range t.words {
		s.words[i] |= w & u.words[i]
	}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	out := s.Clone()
	out.UnionWith(t)
	return out
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	out := s.Clone()
	out.IntersectWith(t)
	return out
}

// SupersetOf reports whether s contains every member of t.
func (s Set) SupersetOf(t Set) bool {
	s.checkCompat(t)
	for i, w := range t.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have the same members and
// capacity.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls f for every member in increasing order, stopping early
// when f returns false. Unlike Members it allocates nothing, so it is
// the iteration to use on hot paths (the per-query candidate walk).
func (s Set) ForEach(f func(int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if !f(wi*64 + b) {
				return
			}
		}
	}
}

// NextSet returns the smallest member ≥ i, or -1 when no such member
// exists. It gives callers an allocation-free cursor-style iteration
// (for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) { ... }).
func (s Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / 64
	w := s.words[wi] >> uint(i%64)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Members returns the elements in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Resize returns a copy of s with capacity m ≥ s.Len(); existing
// members are preserved.
func (s Set) Resize(m int) Set {
	if m < s.n {
		panic("bitset: Resize cannot shrink")
	}
	out := New(m)
	copy(out.words, s.words)
	return out
}

func (s Set) checkCompat(t Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}
