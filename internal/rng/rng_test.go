package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation
	// seeded with 0: the first three outputs.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Errorf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMix(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		state := seed
		want := SplitMix64(&state)
		if got := Mix64(seed); got != want {
			t.Errorf("Mix64(%d) = %#x, want first SplitMix64 output %#x", seed, got, want)
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	// Streams for different permutation indices must differ, and the same
	// (seed, b) pair must always produce the same stream.  This property
	// is what makes the parallel skip rule exact.
	s1 := Stream(7, 10)
	s2 := Stream(7, 10)
	s3 := Stream(7, 11)
	diff := false
	for i := 0; i < 100; i++ {
		v1, v2, v3 := s1.Uint64(), s2.Uint64(), s3.Uint64()
		if v1 != v2 {
			t.Fatalf("Stream(7,10) not reproducible at step %d", i)
		}
		if v1 != v3 {
			diff = true
		}
	}
	if !diff {
		t.Error("Stream(7,10) and Stream(7,11) produced identical sequences")
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(99)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared goodness of fit over 10 buckets; threshold is the 99.9%
	// quantile of chi2 with 9 degrees of freedom (27.88).
	s := New(2024)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Errorf("Uint64n uniformity chi2 = %.2f > 27.88", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(31337)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(77)
	for _, n := range []int{1, 2, 5, 31, 100} {
		dst := make([]int, n)
		s.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) produced invalid permutation %v", n, dst)
			}
			seen[v] = true
		}
	}
}

func TestShuffleUniformity(t *testing.T) {
	// All 6 permutations of 3 elements should be roughly equally likely.
	s := New(11)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		p := [3]int{0, 1, 2}
		s.Shuffle(3, func(a, b int) { p[a], p[b] = p[b], p[a] })
		counts[p]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	for p, c := range counts {
		if c < draws/6-draws/30 || c > draws/6+draws/30 {
			t.Errorf("permutation %v count %d deviates from expected %d", p, c, draws/6)
		}
	}
}

func TestSampleProperties(t *testing.T) {
	s := New(123)
	for _, tc := range []struct{ k, n int }{{0, 0}, {1, 1}, {3, 10}, {10, 10}, {38, 76}} {
		dst := make([]int, tc.k)
		s.Sample(dst, tc.n)
		for i, v := range dst {
			if v < 0 || v >= tc.n {
				t.Fatalf("Sample(k=%d,n=%d)[%d] = %d out of range", tc.k, tc.n, i, v)
			}
			if i > 0 && dst[i-1] >= v {
				t.Fatalf("Sample(k=%d,n=%d) not strictly increasing: %v", tc.k, tc.n, dst)
			}
		}
	}
}

func TestSamplePanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample with k > n did not panic")
		}
	}()
	New(1).Sample(make([]int, 5), 3)
}

func TestSampleUniformity(t *testing.T) {
	// Each element of 0..5 should appear in a 3-subset with probability 1/2.
	s := New(808)
	const draws = 60000
	counts := make([]int, 6)
	dst := make([]int, 3)
	for i := 0; i < draws; i++ {
		s.Sample(dst, 6)
		for _, v := range dst {
			counts[v]++
		}
	}
	for v, c := range counts {
		if c < draws/2-draws/25 || c > draws/2+draws/25 {
			t.Errorf("element %d chosen %d times, want ~%d", v, c, draws/2)
		}
	}
}

func TestQuickStreamReproducible(t *testing.T) {
	f := func(seed, b uint64) bool {
		a, c := Stream(seed, b), Stream(seed, b)
		for i := 0; i < 16; i++ {
			if a.Uint64() != c.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		s := New(seed)
		for i := 0; i < 8; i++ {
			if s.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroStateGuard(t *testing.T) {
	var s Source
	s.s = [4]uint64{0, 0, 0, 0}
	s.Seed(0)
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		t.Error("Seed left an all-zero state")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkStreamCreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Stream(42, uint64(i))
	}
}

func BenchmarkShuffle76(b *testing.B) {
	// 76 columns is the sample count of the paper's benchmark dataset.
	s := New(9)
	p := make([]int, 76)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Perm(p)
	}
}
