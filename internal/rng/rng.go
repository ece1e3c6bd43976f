// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a first-class requirement for the Monte-Carlo
// experiments: every trial derives its own stream from a root seed, so
// experiments are bit-for-bit repeatable regardless of how many worker
// goroutines participate or in which order trials complete.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through
// splitmix64, the standard remedy for correlated low-entropy seeds. Both
// algorithms are public domain. Only stdlib is used.
package rng

import "math"

// splitMix64 advances x by the splitmix64 step and returns the next output.
// It is used to expand a 64-bit seed into the 256-bit xoshiro state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. The zero value is invalid; use New or
// NewFrom. RNG is not safe for concurrent use: give each goroutine its own
// stream via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes the generator state from seed.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitMix64(&x)
	r.s1 = splitMix64(&x)
	r.s2 = splitMix64(&x)
	r.s3 = splitMix64(&x)
	// xoshiro requires a not-all-zero state; splitmix64 of any seed cannot
	// produce four zero outputs, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output mixed with the stream index, so distinct indices give
// statistically independent streams and the parent remains usable.
func (r *RNG) Split(index uint64) *RNG {
	c := &RNG{}
	c.ReseedSplit(r, index)
	return c
}

// ReseedSplit re-initializes r in place to the exact state parent.Split
// (index) would return, advancing parent identically — the allocation-free
// form for callers that keep worker RNG values alive across batches but
// must re-derive them per batch.
func (r *RNG) ReseedSplit(parent *RNG, index uint64) {
	x := parent.Uint64() ^ (index * 0xd1342543de82ef95)
	r.Reseed(splitMix64(&x))
}

// Stream returns the index-th derived stream of a root seed without any
// shared state: Stream(seed, i) is a pure function, so parallel Monte-Carlo
// trials get reproducible randomness regardless of scheduling order.
func Stream(seed, index uint64) *RNG {
	r := &RNG{}
	r.ReseedStream(seed, index)
	return r
}

// ReseedStream re-initializes r in place to the exact state Stream(seed,
// index) returns, without allocating. Monte-Carlo workers reuse one RNG
// value across all their trials this way.
func (r *RNG) ReseedStream(seed, index uint64) {
	x := seed ^ (index+1)*0x9e3779b97f4a7c15
	r.Reseed(splitMix64(&x))
}

// State is a snapshot of the full 256-bit generator state. It exists so
// batched pipelines can capture "the stream of trial i after its injection
// draws" once and resume it later (e.g. for churn randomness) without
// replaying the draws — see fault.BatchInjector.
type State [4]uint64

// State returns a snapshot of the generator state.
func (r *RNG) State() State { return State{r.s0, r.s1, r.s2, r.s3} }

// SetState restores a snapshot taken with State. The generator then produces
// exactly the sequence it would have produced from the snapshot point.
func (r *RNG) SetState(s State) { r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3] }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values drawn uniformly from [0, n) in arbitrary
// order. It panics if k > n or k < 0. For small k relative to n it uses
// Floyd's algorithm; otherwise it shuffles a full permutation prefix.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*4 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	// Floyd's subset sampling.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a Geometric(p) variate on {0,1,2,...}. Used by fault
// injection to skip runs of healthy switches in O(#failures) time.
// It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric p out of range")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}
