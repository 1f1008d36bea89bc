package stat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRanksNoTies(t *testing.T) {
	row := []float64{30, 10, 20}
	Ranks(row, nil)
	want := []float64{3, 1, 2}
	for i := range row {
		if row[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, row[i], want[i])
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	row := []float64{5, 1, 5, 3}
	Ranks(row, nil)
	// Sorted: 1, 3, 5, 5 -> ranks 1, 2, 3.5, 3.5.
	want := []float64{3.5, 1, 3.5, 2}
	for i := range row {
		if row[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, row[i], want[i])
		}
	}
}

func TestRanksAllEqual(t *testing.T) {
	row := []float64{7, 7, 7, 7}
	Ranks(row, nil)
	for i, v := range row {
		if v != 2.5 {
			t.Errorf("Ranks[%d] = %v, want 2.5", i, v)
		}
	}
}

func TestRanksPreserveNaN(t *testing.T) {
	nan := math.NaN()
	row := []float64{nan, 4, 2, nan, 6}
	Ranks(row, nil)
	if !math.IsNaN(row[0]) || !math.IsNaN(row[3]) {
		t.Error("Ranks overwrote NaN entries")
	}
	want := []float64{0, 2, 1, 0, 3}
	for _, i := range []int{1, 2, 4} {
		if row[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, row[i], want[i])
		}
	}
}

func TestRanksEmptyAndAllNaN(t *testing.T) {
	Ranks(nil, nil) // must not panic
	nan := math.NaN()
	row := []float64{nan, nan}
	Ranks(row, nil)
	if !math.IsNaN(row[0]) || !math.IsNaN(row[1]) {
		t.Error("all-NaN row modified")
	}
}

// Property: ranks of n distinct values are a permutation of 1..n, and the
// rank order matches the value order.
func TestQuickRanksAreConsistent(t *testing.T) {
	f := func(vals []float64) bool {
		row := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				row = append(row, v)
			}
		}
		orig := append([]float64(nil), row...)
		Ranks(row, nil)
		// Sum of mid-ranks over n non-missing values is always n(n+1)/2.
		n := len(row)
		sum := 0.0
		for _, r := range row {
			sum += r
		}
		if math.Abs(sum-float64(n*(n+1))/2) > 1e-9 {
			return false
		}
		// Order consistency: v_i < v_j implies rank_i < rank_j.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if orig[i] < orig[j] && row[i] >= row[j] {
					return false
				}
				if orig[i] == orig[j] && row[i] != row[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ranksSortSlice is the rank transform as it was before Ranks sorted in
// place, kept as the oracle of TestRanksMatchSortSlice.
func ranksSortSlice(dst []float64) {
	var idx []int
	for j, v := range dst {
		if !math.IsNaN(v) {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return dst[idx[a]] < dst[idx[b]] })
	for i, n := 0, len(idx); i < n; {
		j := i + 1
		for j < n && dst[idx[j]] == dst[idx[i]] {
			j++
		}
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			dst[idx[k]] = mid
		}
		i = j
	}
}

// TestRanksMatchSortSlice: mid-ranks do not depend on how a sort orders
// equal values, so Ranks must reproduce the sort.Slice routine bit for bit
// — on both sides of its short-row threshold, with ties, NaN holes,
// infinities and signed zeros — and allocate nothing given a scratch.
func TestRanksMatchSortSlice(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 1, 1, 2.5, -3}
	r := lcg(17)
	scratch := make([]int, 80)
	for n := 0; n <= 80; n++ {
		for trial := 0; trial < 20; trial++ {
			row := make([]float64, n)
			for j := range row {
				if trial%2 == 0 {
					row[j] = pool[r.next()%uint64(len(pool))]
				} else {
					row[j] = float64(r.next()%uint64(n+1)) / 2
				}
			}
			want := append([]float64(nil), row...)
			ranksSortSlice(want)
			var got []float64
			if allocs := testing.AllocsPerRun(1, func() {
				got = append(got[:0], row...)
				Ranks(got, scratch)
			}); allocs != 0 {
				t.Fatalf("n=%d: Ranks allocates %v times per call", n, allocs)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d trial %d col %d: rank %v, sort.Slice routine %v (row %v)", n, trial, j, got[j], want[j], row)
				}
			}
		}
	}
}

func BenchmarkRanks76(b *testing.B) {
	row := make([]float64, 76)
	scratch := make([]int, 76)
	for i := range row {
		row[i] = float64((i * 31) % 19)
	}
	work := make([]float64, 76)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, row)
		Ranks(work, scratch)
	}
}
