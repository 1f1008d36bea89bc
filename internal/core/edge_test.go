package core

import (
	"math"
	"slices"
	"testing"
)

// Edge-case coverage: minimum designs, degenerate data, extreme process
// counts, and boundary permutation counts.

func TestSingleGeneMatrix(t *testing.T) {
	x := [][]float64{{1.3, 2.7, 1.9, 6.1, 7.3, 6.8}}
	lab := twoClass(3, 3)
	serial, err := serialRun(x, lab, Options{B: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := collective(x, lab, 4, Options{B: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "single-gene", serial, par)
	// With one gene, raw and adjusted p-values coincide (the successive
	// maximum of one statistic is the statistic).
	if serial.RawP[0] != serial.AdjP[0] {
		t.Errorf("single gene: rawp %v != adjp %v", serial.RawP[0], serial.AdjP[0])
	}
}

func TestMinimumDesignFourColumns(t *testing.T) {
	// Smallest valid two-sample design: 2 vs 2 columns, C(4,2) = 6.
	x := synthMatrix(8, 4, 2, 3)
	res, err := serialRun(x, twoClass(2, 2), Options{B: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.B != 6 {
		t.Errorf("Complete=%v B=%d, want complete 6", res.Complete, res.B)
	}
	for i, p := range res.RawP {
		if p < 1.0/6-1e-12 || p > 1 {
			t.Errorf("row %d: p = %v out of range", i, p)
		}
	}
}

func TestBOfOne(t *testing.T) {
	// B = 1 means only the observed labelling: every p-value is 1.
	x := synthMatrix(5, 12, 1, 4)
	res, err := serialRun(x, twoClass(6, 6), Options{B: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.RawP {
		if res.RawP[i] != 1 || res.AdjP[i] != 1 {
			t.Errorf("row %d: (%v, %v), want (1, 1)", i, res.RawP[i], res.AdjP[i])
		}
	}
}

func TestMoreProcsThanPermutations(t *testing.T) {
	// 16 ranks for 10 permutations: some ranks get empty chunks; results
	// must still match the serial run exactly.
	x := synthMatrix(10, 12, 2, 9)
	lab := twoClass(6, 6)
	serial, err := serialRun(x, lab, Options{B: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fss := range []string{"y", "n"} {
		opt := Options{B: 10, Seed: 2, FixedSeedSampling: fss}
		s2, err := serialRun(x, lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := collective(x, lab, 16, opt)
		if err != nil {
			t.Fatalf("fss=%s: %v", fss, err)
		}
		if fss == "y" {
			resultsEqual(t, "tiny-B-many-procs", serial, par)
		}
		resultsEqual(t, "tiny-B-many-procs-"+fss, s2, par)
	}
}

func TestManyRanksStress(t *testing.T) {
	// 64 goroutine ranks — far oversubscribed, exercising the collective
	// trees at depth 6.
	x := synthMatrix(12, 12, 2, 11)
	lab := twoClass(6, 6)
	serial, err := serialRun(x, lab, Options{B: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := collective(x, lab, 64, Options{B: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "64-ranks", serial, par)
}

func TestAllRowsDegenerate(t *testing.T) {
	// Constant rows: every statistic is NaN, every p-value NaN, and the
	// run must complete without dividing by zero anywhere.
	x := [][]float64{
		{5, 5, 5, 5, 5, 5},
		{2, 2, 2, 2, 2, 2},
	}
	res, err := collective(x, twoClass(3, 3), 2, Options{B: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !math.IsNaN(res.RawP[i]) || !math.IsNaN(res.AdjP[i]) {
			t.Errorf("row %d: p-values (%v, %v), want NaN", i, res.RawP[i], res.AdjP[i])
		}
	}
}

func TestMostlyMissingColumnStillRuns(t *testing.T) {
	x := synthMatrix(10, 12, 2, 7)
	// Knock out one entire column: per-gene group sizes drop by one but
	// stay >= 2, so statistics remain defined.
	for i := range x {
		x[i][3] = math.NaN()
	}
	serial, err := serialRun(x, twoClass(6, 6), Options{B: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	par, err := collective(x, twoClass(6, 6), 3, Options{B: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "missing-column", serial, par)
}

func TestTiesInObservedStatisticsDeterministicOrder(t *testing.T) {
	// Exactly tied observed statistics — duplicate rows of each sign, many
	// deep, and rows whose group means are equal (t = -0, so Obs = +0
	// under abs and lower) — and rows without a statistic: the order must
	// be decreasing Obs, ties by row index, the NaN rows last in index
	// order, identically in serial and parallel.  (|t| of down is a hair
	// above that of up.)  The mixed ±0 of a single Obs vector is
	// TestRankRowsOrder's in maxt.
	const up, down, flat, none = 0, 1, 2, 3
	rows := [][]float64{
		up:   {1.1, 2.2, 0.9, 5.1, 6.2, 5.4},
		down: {5.1, 6.2, 5.4, 1.1, 2.2, 0.9},
		flat: {1, 2, 3, 1, 2, 3},
		none: {4, 4, 4, 4, 4, 4},
	}
	kinds := []int{flat, up, none, down, up, flat, none, down, up, up, flat, down}
	kinds = slices.Concat(kinds, kinds, kinds)
	var x [][]float64
	idx := make([][]int, len(rows))
	for i, k := range kinds {
		x = append(x, slices.Clone(rows[k]))
		idx[k] = append(idx[k], i)
	}
	for _, tc := range []struct {
		side  string
		kinds []int
	}{
		{"abs", []int{down, up, flat, none}},
		{"upper", []int{up, flat, down, none}},
		{"lower", []int{down, flat, up, none}},
	} {
		var want []int
		for _, k := range tc.kinds {
			want = append(want, idx[k]...)
		}
		opt := Options{Side: tc.side, B: 60, Seed: 6}
		serial, err := serialRun(x, twoClass(3, 3), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(serial.Order, want) {
			t.Errorf("%s: order %v, want %v", tc.side, serial.Order, want)
		}
		par, err := collective(x, twoClass(3, 3), 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "tied-rows/"+tc.side, serial, par)
	}
}

func TestWideMatrixManyColumns(t *testing.T) {
	// The paper's 76-column shape with both generators and a non-power-
	// of-two rank count.
	x := synthMatrix(20, 76, 2, 12)
	lab := twoClass(38, 38)
	for _, fss := range []string{"y", "n"} {
		opt := Options{B: 64, Seed: 4, FixedSeedSampling: fss}
		serial, err := serialRun(x, lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := collective(x, lab, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "wide-"+fss, serial, par)
	}
}

func TestKernelMaxAtLeastMasterKernel(t *testing.T) {
	x := synthMatrix(30, 12, 3, 13)
	res, err := collective(x, twoClass(6, 6), 6, Options{B: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelMax < res.Profile.MainKernel {
		t.Errorf("KernelMax %v < master kernel %v", res.KernelMax, res.Profile.MainKernel)
	}
}

// TestZeroStatisticIsPositiveZero: a row whose classes have equal means
// has a zero statistic, and every test reports it as +0 — the value the
// per-row statistics (stat.welchT and the rest) give — never −0, which
// the result document would print as "-0".
func TestZeroStatisticIsPositiveZero(t *testing.T) {
	for _, c := range []struct {
		test string
		lab  []int
		x    [][]float64
	}{
		{"t", twoClass(3, 3), [][]float64{{1, 2, 3, 1, 2, 3}, {5, 6, 7, 7, 6, 5}}},
		{"t.equalvar", twoClass(3, 3), [][]float64{{1, 2, 3, 1, 2, 3}, {5, 6, 7, 7, 6, 5}}},
		{"wilcoxon", twoClass(3, 3), [][]float64{{1, 2, 3, 1, 2, 3}, {5, 6, 7, 7, 6, 5}}},
		{"f", []int{0, 0, 1, 1, 2, 2}, [][]float64{{1, 2, 1, 2, 1, 2}, {5, 7, 7, 5, 6, 6}}},
		{"pairt", []int{0, 1, 0, 1, 0, 1}, [][]float64{{1, 2, 3, 2, 5, 5}, {4, 6, 6, 4, 5, 5}}},
		{"blockf", []int{0, 1, 2, 1, 2, 0}, [][]float64{{1, 2, 3, 2, 1, 3}, {4, 5, 6, 7, 6, 8}}},
	} {
		res, err := serialRun(c.x, c.lab, Options{Test: c.test, B: 0})
		if err != nil {
			t.Fatalf("%s: %v", c.test, err)
		}
		for i, s := range res.Stat {
			if s != 0 || math.Signbit(s) {
				t.Errorf("%s row %d: statistic %v (sign bit %v), want +0", c.test, i, s, math.Signbit(s))
			}
		}
	}
}
