// Package bitset implements a dense, fixed-capacity bitset.
//
// Reachability sweeps over staged networks (majority-access checks, greedy
// routing frontiers, fault masks) are the innermost loops of every
// experiment in this repository; a flat []uint64 with explicit word
// operations keeps them allocation-free and cache-friendly. The
// word-parallel majority-access certifier (core.BatchAccessChecker) uses a
// Set as its lane-row storage through Words.
//
// Every mutator maintains the invariant that the unused high bits of the
// last word (the padding bits, present whenever Len() is not a multiple of
// 64) are zero; Count, Any, Equal and CountRange rely on it. Set, Clear
// and Test therefore panic on out-of-range indices rather than silently
// touching the padding.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a bitset over [0, Len()). The zero value is an empty set of
// capacity zero; use New for a set of a given capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a set of capacity n with all bits clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

// panicRange reports an out-of-range index. It is kept out of line so the
// bounds check in Set/Clear/Test stays within the inliner budget.
func (s *Set) panicRange(i int) {
	panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
}

// Set sets bit i. It panics when i is outside [0, Len()): indices within
// the last word's slack would otherwise corrupt the padding bits and make
// Count, Any and Equal lie.
func (s *Set) Set(i int) {
	if uint(i) >= uint(s.n) {
		s.panicRange(i)
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i. It panics when i is outside [0, Len()).
func (s *Set) Clear(i int) {
	if uint(i) >= uint(s.n) {
		s.panicRange(i)
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set. It panics when i is outside
// [0, Len()).
func (s *Set) Test(i int) bool {
	if uint(i) >= uint(s.n) {
		s.panicRange(i)
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Words exposes the backing words for hot loops that operate on 64 bits at
// a time (bit i lives at Words()[i/64] bit i%64). Callers that write
// through the slice must preserve the invariant that the padding bits —
// the high bits of the last word beyond Len() — stay zero.
func (s *Set) Words() []uint64 { return s.words }

// SetAll sets every bit in [0, Len()).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim clears the unused high bits of the last word so Count and Equal are
// exact.
func (s *Set) trim() {
	if r := uint(s.n) & 63; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of t. Both must have equal
// capacity.
func (s *Set) CopyFrom(t *Set) {
	if s.n != t.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, t.words)
}

// Union sets s = s ∪ t. Capacities must match.
func (s *Set) Union(t *Set) {
	if s.n != t.n {
		panic("bitset: Union capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect sets s = s ∩ t. Capacities must match.
func (s *Set) Intersect(t *Set) {
	if s.n != t.n {
		panic("bitset: Intersect capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// AndNot sets s = s \ t. Capacities must match.
func (s *Set) AndNot(t *Set) {
	if s.n != t.n {
		panic("bitset: AndNot capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. Iterate a set with:
//
//	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) { ... }
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	if word := s.words[w] >> (uint(i) & 63); word != 0 {
		r := i + bits.TrailingZeros64(word)
		if r < s.n {
			return r
		}
		return -1
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			r := w<<6 + bits.TrailingZeros64(s.words[w])
			if r < s.n {
				return r
			}
			return -1
		}
	}
	return -1
}

// Members appends the indices of all set bits to dst and returns it.
func (s *Set) Members(dst []int) []int {
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		dst = append(dst, i)
	}
	return dst
}

// CountRange returns the number of set bits in [lo, hi). Out-of-range
// bounds are clamped to [0, Len()). It popcounts whole words, masking only
// the partial first and last ones, so the cost is O((hi−lo)/64) words
// rather than one scan per set bit.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	wlo, whi := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wlo == whi {
		return bits.OnesCount64(s.words[wlo] & first & last)
	}
	c := bits.OnesCount64(s.words[wlo] & first)
	for w := wlo + 1; w < whi; w++ {
		c += bits.OnesCount64(s.words[w])
	}
	return c + bits.OnesCount64(s.words[whi]&last)
}
