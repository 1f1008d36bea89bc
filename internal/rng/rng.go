// Package rng provides the deterministic random-number machinery used by the
// permutation generators.
//
// The central requirement, taken from Section 3.2 of the paper, is that the
// parallel implementation must reproduce the serial results exactly: every
// rank fast-forwards its generator to the first permutation of its chunk.
// SPRINT achieves this with multtest's "fixed seed sampling", where the
// random labelling for permutation b is a pure function of (seed, b).  We
// reproduce that design with counter-based streams: Stream(seed, b) derives
// an independent xoshiro256** generator from SplitMix64(seed XOR golden*b),
// so skipping to permutation b is O(1) and independent of how many
// permutations other ranks consume.
package rng

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio constant used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 advances the state and returns the next value of Sebastiano
// Vigna's splitmix64 sequence.  It is used both as a stand-alone mixer for
// deriving stream seeds and as the seeding procedure for xoshiro.
func SplitMix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed function of x without carrying state.  It is
// the finalizer of SplitMix64 applied once.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a xoshiro256** pseudo-random generator.  The zero value is not a
// valid generator; construct one with New or Stream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, as recommended by
// the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed re-initialises the generator state from seed.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = SplitMix64(&sm)
	}
	// xoshiro requires a non-zero state; SplitMix64 of any seed cannot
	// produce four zero words, but guard anyway for safety.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = golden
	}
}

// Stream returns a generator for permutation index b of the run identified
// by seed.  Streams with distinct b values are statistically independent,
// which is what makes the on-the-fly generator skippable: a rank that must
// start at permutation k simply calls Stream(seed, k) and never touches the
// earlier streams.
func Stream(seed uint64, b uint64) *Source {
	var s Source
	s.SeedStream(seed, b)
	return &s
}

// SeedStream re-initialises s in place as the Stream(seed, b) generator.
// It exists so batch consumers (perm.Generator.Labels) can hop across many
// streams without allocating a Source per permutation.
func (s *Source) SeedStream(seed, b uint64) {
	s.Seed(Mix64(seed) ^ Mix64(golden*b+1))
}

// Uint64 returns the next value of the xoshiro256** sequence.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n).  It uses Lemire's multiply-shift
// rejection method, which is unbiased and needs no division in the common
// case.  n must be positive.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n).  n must be positive.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
// The quotient (a product by 2^-53 once compiled) is rounded explicitly,
// so an inlining caller's add cannot fuse it into an FMA.
func (s *Source) Float64() float64 {
	return float64(float64(s.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.  It is used only by the synthetic data generator, not
// by the permutation machinery, so speed matters less than simplicity.
func (s *Source) NormFloat64() float64 {
	for {
		// float64(…) rounds each product before the add, so no target
		// fuses it into an FMA and every architecture draws the same bits.
		u := float64(2*s.Float64()) - 1
		v := float64(2*s.Float64()) - 1
		q := float64(u*u) + float64(v*v)
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Shuffle performs a Fisher–Yates shuffle of the first n integers through
// the swap function, identical in structure to math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm fills dst (length n) with a uniform random permutation of 0..n-1.
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	s.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Sample fills dst with a uniform random k-subset of 0..n-1 in increasing
// order, where k = len(dst), using selection sampling (Knuth 3.4.2 S).  The
// two-class permutation generator uses it to pick which columns receive
// label 1.
func (s *Source) Sample(dst []int, n int) {
	k := len(dst)
	if k > n {
		panic("rng: Sample with k > n")
	}
	chosen := 0
	for i := 0; i < n && chosen < k; i++ {
		if s.Uint64n(uint64(n-i)) < uint64(k-chosen) {
			dst[chosen] = i
			chosen++
		}
	}
}
