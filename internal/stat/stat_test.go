package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && math.Abs(got-want) > tol) {
		t.Errorf("%s = %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestParseTestRoundTrip(t *testing.T) {
	for _, test := range []Test{Welch, TEqualVar, Wilcoxon, F, PairT, BlockF} {
		got, err := ParseTest(test.String())
		if err != nil {
			t.Fatalf("ParseTest(%q): %v", test.String(), err)
		}
		if got != test {
			t.Errorf("ParseTest(%q) = %v, want %v", test.String(), got, test)
		}
	}
}

func TestParseTestUnknown(t *testing.T) {
	if _, err := ParseTest("anova"); err == nil {
		t.Error("ParseTest(\"anova\") succeeded, want error")
	}
}

func TestTestStringUnknown(t *testing.T) {
	if s := Test(99).String(); s != "Test(99)" {
		t.Errorf("Test(99).String() = %q", s)
	}
}

func twoClassLabels(n0, n1 int) []int {
	lab := make([]int, n0+n1)
	for i := n0; i < n0+n1; i++ {
		lab[i] = 1
	}
	return lab
}

func TestWelchTKnownValue(t *testing.T) {
	row := []float64{1, 2, 3, 4, 5, 7}
	lab := twoClassLabels(4, 2)
	d, err := NewDesign(Welch, lab)
	if err != nil {
		t.Fatal(err)
	}
	// se = sqrt((5/3)/4 + 2/2) = 1.190238; t = 3.5/se = 2.940588.
	approx(t, d.Func()(row, lab), 2.94059, 1e-4, "welch t")
}

func TestEqualVarTKnownValue(t *testing.T) {
	row := []float64{1, 2, 3, 4, 5, 7}
	lab := twoClassLabels(4, 2)
	d, err := NewDesign(TEqualVar, lab)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Func()(row, lab), 3.05506, 1e-4, "equal-var t")
}

func TestWelchVsEqualVarCoincideForBalancedEqualVariance(t *testing.T) {
	// With equal group sizes and equal sample variances the two statistics
	// are identical.
	row := []float64{1, 2, 3, 4, 5, 6}
	lab := twoClassLabels(3, 3)
	dw, _ := NewDesign(Welch, lab)
	de, _ := NewDesign(TEqualVar, lab)
	w, e := dw.Func()(row, lab), de.Func()(row, lab)
	approx(t, w, e, 1e-12, "welch vs pooled on balanced equal-variance data")
}

func TestWilcoxonKnownValue(t *testing.T) {
	row := []float64{1, 2, 3, 4, 5, 6} // already equal to its ranks
	lab := twoClassLabels(3, 3)
	d, err := NewDesign(Wilcoxon, lab)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Func()(row, lab), 1.96396, 1e-4, "wilcoxon z")
}

func TestWilcoxonWithTies(t *testing.T) {
	row := []float64{1, 1, 2, 2, 3, 3}
	Ranks(row, nil)
	lab := twoClassLabels(3, 3)
	d, _ := NewDesign(Wilcoxon, lab)
	z := d.Func()(row, lab)
	if math.IsNaN(z) {
		t.Fatal("tie-corrected wilcoxon is NaN")
	}
	// Mid-ranks: 1.5,1.5,3.5,3.5,5.5,5.5. S1 = 3.5+5.5+5.5 = 14.5,
	// ybar = 3.5, ssq = sum(r^2) - 6*3.5^2 = 89.5 - 73.5 = 16,
	// var = 9/30*16 = 4.8, z = (14.5-10.5)/sqrt(4.8) = 1.82574.
	approx(t, z, 1.82574, 1e-4, "tie-corrected wilcoxon z")
}

func TestOnewayFKnownValue(t *testing.T) {
	row := []float64{1, 2, 3, 2, 3, 4, 6, 7, 8}
	lab := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	d, err := NewDesign(F, lab)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Func()(row, lab), 21.0, 1e-9, "one-way F")
}

func TestPairedTKnownValue(t *testing.T) {
	row := []float64{1, 3, 2, 5, 4, 4, 3, 7}
	lab := []int{0, 1, 0, 1, 0, 1, 0, 1}
	d, err := NewDesign(PairT, lab)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Func()(row, lab), 2.63490, 1e-4, "paired t")
}

func TestPairedTFlippedPairOrder(t *testing.T) {
	// Storing pairs as (1,0) must flip the sign of each difference, giving
	// the same statistic as the (0,1) layout with swapped values.
	rowA := []float64{1, 3, 2, 5, 4, 4, 3, 7}
	labA := []int{0, 1, 0, 1, 0, 1, 0, 1}
	rowB := []float64{3, 1, 5, 2, 4, 4, 7, 3}
	labB := []int{1, 0, 1, 0, 1, 0, 1, 0}
	dA, _ := NewDesign(PairT, labA)
	dB, _ := NewDesign(PairT, labB)
	approx(t, dA.Func()(rowA, labA), dB.Func()(rowB, labB), 1e-12, "pair order invariance")
}

func TestBlockFKnownValue(t *testing.T) {
	row := []float64{1, 2, 3, 5, 4, 6}
	lab := []int{0, 1, 0, 1, 0, 1}
	d, err := NewDesign(BlockF, lab)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Func()(row, lab), 25.0, 1e-9, "block F")
}

func TestWelchNaNHandling(t *testing.T) {
	nan := math.NaN()
	d, _ := NewDesign(Welch, twoClassLabels(3, 3))
	f := d.Func()
	// Missing values excluded: statistic equals the reduced-data value.
	full := []float64{1, 2, 3, 4, 5, 7}
	withNA := []float64{1, 2, 3, nan, 4, 5, 7, nan}
	labNA := []int{0, 0, 0, 0, 1, 1, 1, 1}
	want := f(full, twoClassLabels(3, 3))
	got := f(withNA, labNA)
	approx(t, got, want, 1e-12, "welch with NA exclusion")
}

func TestStatisticsReturnNaNWhenGroupTooSmall(t *testing.T) {
	nan := math.NaN()
	lab := twoClassLabels(3, 3)
	row := []float64{1, 2, 3, nan, nan, 4} // class 1 has one observation
	for _, test := range []Test{Welch, TEqualVar, Wilcoxon} {
		d, _ := NewDesign(test, lab)
		if v := d.Func()(row, lab); !math.IsNaN(v) {
			t.Errorf("%v with degenerate group = %v, want NaN", test, v)
		}
	}
}

func TestZeroVarianceGivesNaN(t *testing.T) {
	lab := twoClassLabels(3, 3)
	row := []float64{5, 5, 5, 5, 5, 5}
	for _, test := range []Test{Welch, TEqualVar, Wilcoxon} {
		d, _ := NewDesign(test, lab)
		rowCopy := append([]float64(nil), row...)
		if test == Wilcoxon {
			Ranks(rowCopy, nil)
		}
		if v := d.Func()(rowCopy, lab); !math.IsNaN(v) {
			t.Errorf("%v on constant row = %v, want NaN", test, v)
		}
	}
}

func TestPairedTNaNPairExclusion(t *testing.T) {
	nan := math.NaN()
	lab := []int{0, 1, 0, 1, 0, 1, 0, 1}
	rowFull := []float64{1, 3, 2, 5, 3, 7, 0, 0}
	rowNA := []float64{1, 3, 2, 5, 3, 7, nan, 2}
	d, _ := NewDesign(PairT, lab)
	f := d.Func()
	// Pair 3 excluded in rowNA; compare against the 3-pair dataset.
	row3 := []float64{1, 3, 2, 5, 3, 7}
	lab3 := []int{0, 1, 0, 1, 0, 1}
	d3, _ := NewDesign(PairT, lab3)
	approx(t, f(rowNA, lab), d3.Func()(row3, lab3), 1e-12, "pairt NA pair exclusion")
	_ = rowFull
}

func TestBlockFNaNBlockExclusion(t *testing.T) {
	nan := math.NaN()
	lab := []int{0, 1, 0, 1, 0, 1}
	rowNA := []float64{1, 2, 3, 5, nan, 6}
	d, _ := NewDesign(BlockF, lab)
	got := d.Func()(rowNA, lab)
	// Only blocks 0 and 1 remain; recompute with the 2-block layout.
	row2 := []float64{1, 2, 3, 5}
	lab2 := []int{0, 1, 0, 1}
	d2, _ := NewDesign(BlockF, lab2)
	approx(t, got, d2.Func()(row2, lab2), 1e-12, "blockf NA block exclusion")
}

func TestNewDesignValidation(t *testing.T) {
	cases := []struct {
		name string
		test Test
		lab  []int
	}{
		{"empty", Welch, nil},
		{"negative label", Welch, []int{0, -1, 1, 1}},
		{"three classes for t", Welch, []int{0, 1, 2, 0, 1, 2}},
		{"one per group", Welch, []int{0, 1}},
		{"missing class", F, []int{0, 0, 2, 2}},
		{"single class f", F, []int{0, 0, 0}},
		{"small class f", F, []int{0, 0, 1, 1, 2}},
		{"odd columns pairt", PairT, []int{0, 1, 0}},
		{"bad pair labels", PairT, []int{0, 0, 1, 1}},
		{"single pair", PairT, []int{0, 1}},
		{"blockf indivisible", BlockF, []int{0, 1, 0, 1, 0}},
		{"blockf repeat in block", BlockF, []int{0, 0, 1, 1}},
		{"blockf one block", BlockF, []int{0, 1}},
		{"unknown test", Test(42), []int{0, 1, 0, 1}},
	}
	for _, tc := range cases {
		if _, err := NewDesign(tc.test, tc.lab); err == nil {
			t.Errorf("%s: NewDesign succeeded, want error", tc.name)
		}
	}
}

func TestNewDesignFields(t *testing.T) {
	d, err := NewDesign(BlockF, []int{0, 1, 2, 1, 2, 0, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Blocks != 3 || d.BlockSize != 3 || d.K != 3 || d.N != 9 {
		t.Errorf("blockf design = %+v", d)
	}
	dp, err := NewDesign(PairT, []int{0, 1, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Pairs != 3 {
		t.Errorf("pairt Pairs = %d, want 3", dp.Pairs)
	}
	dw, err := NewDesign(Welch, twoClassLabels(40, 36))
	if err != nil {
		t.Fatal(err)
	}
	if dw.Counts[0] != 40 || dw.Counts[1] != 36 {
		t.Errorf("welch counts = %v", dw.Counts)
	}
}

func TestNeedsRanks(t *testing.T) {
	for test, want := range map[Test]bool{Wilcoxon: true, Welch: false, F: false} {
		lab := twoClassLabels(3, 3)
		if test == F {
			lab = []int{0, 0, 0, 1, 1, 1}
		}
		d, err := NewDesign(test, lab)
		if err != nil {
			t.Fatal(err)
		}
		if d.NeedsRanks() != want {
			t.Errorf("%v.NeedsRanks() = %v, want %v", test, !want, want)
		}
	}
}

// Property: two-sample t statistics flip sign when the class labels are
// exchanged, and F statistics are invariant.
func TestQuickLabelSwapSymmetry(t *testing.T) {
	f := func(seed uint8) bool {
		row := make([]float64, 10)
		s := uint64(seed) + 1
		for i := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[i] = float64(s%1000) / 100
		}
		lab := twoClassLabels(5, 5)
		swapped := make([]int, len(lab))
		for i, l := range lab {
			swapped[i] = 1 - l
		}
		dw, _ := NewDesign(Welch, lab)
		tw := dw.Func()
		a, b := tw(row, lab), tw(row, swapped)
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Abs(a+b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: statistics are invariant under permutations that keep every
// column in its class (relabelling within classes does not change group
// membership).
func TestQuickWithinClassPermutationInvariance(t *testing.T) {
	f := func(seed uint8) bool {
		row := make([]float64, 8)
		s := uint64(seed)*2654435761 + 1
		for i := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[i] = float64(s % 97)
		}
		labA := []int{0, 0, 0, 0, 1, 1, 1, 1}
		labB := []int{0, 0, 0, 0, 1, 1, 1, 1} // same classes, same columns
		d, _ := NewDesign(Welch, labA)
		a, b := d.Func()(row, labA), d.Func()(row, labB)
		return (math.IsNaN(a) && math.IsNaN(b)) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the F statistic is invariant under any relabelling of class
// identities (classes are exchangeable).
func TestQuickFClassExchangeInvariance(t *testing.T) {
	f := func(seed uint8) bool {
		row := make([]float64, 9)
		s := uint64(seed) + 3
		for i := range row {
			s = s*2862933555777941757 + 3037000493
			row[i] = float64(s % 61)
		}
		lab := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
		relab := make([]int, len(lab))
		for i, l := range lab {
			relab[i] = (l + 1) % 3 // rotate class identities
		}
		d, _ := NewDesign(F, lab)
		a, b := d.Func()(row, lab), d.Func()(row, relab)
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnewayFWithNA(t *testing.T) {
	nan := math.NaN()
	lab := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	d, _ := NewDesign(F, lab)
	f := d.Func()
	// Excluding one value must equal computing on the reduced design.
	rowNA := []float64{1, 2, 3, 2, 3, nan, 6, 7, 8}
	redRow := []float64{1, 2, 3, 2, 3, 6, 7, 8}
	redLab := []int{0, 0, 0, 1, 1, 2, 2, 2}
	dRed, _ := NewDesign(F, redLab)
	approx(t, f(rowNA, lab), dRed.Func()(redRow, redLab), 1e-12, "F with NA exclusion")
	// A class reduced below 2 observations makes the statistic NaN.
	rowBad := []float64{1, 2, 3, nan, nan, 4, 6, 7, 8}
	if v := f(rowBad, lab); !math.IsNaN(v) {
		t.Errorf("F with degenerate class = %v, want NaN", v)
	}
}

func TestBlockFInvariantToBlockOrder(t *testing.T) {
	// Swapping whole blocks permutes the block sums but cannot change
	// the F statistic.
	lab := []int{0, 1, 0, 1, 0, 1}
	d, _ := NewDesign(BlockF, lab)
	f := d.Func()
	row := []float64{1, 2, 3, 5, 4, 6}
	swapped := []float64{3, 5, 1, 2, 4, 6} // blocks 0 and 1 exchanged
	approx(t, f(row, lab), f(swapped, lab), 1e-12, "blockF block-order invariance")
}

func TestWilcoxonMirrorSymmetry(t *testing.T) {
	// Exchanging the class labels negates the standardized rank sum.
	row := []float64{3, 1, 4, 1.5, 9, 2.6}
	Ranks(row, nil)
	lab := twoClassLabels(3, 3)
	swapped := make([]int, len(lab))
	for i, l := range lab {
		swapped[i] = 1 - l
	}
	d, _ := NewDesign(Wilcoxon, lab)
	f := d.Func()
	approx(t, f(row, lab), -f(row, swapped), 1e-12, "wilcoxon label-swap antisymmetry")
}

func TestGroupMomentsIgnoresForeignLabels(t *testing.T) {
	// Labels outside [0, k) are skipped rather than crashing; the
	// generators never produce them, but defensive handling keeps a
	// corrupted labelling from panicking deep in the kernel.
	row := []float64{1, 2, 3, 4, 5, 6}
	lab := []int{0, 0, 7, 1, 1, -2}
	var n [2]int
	var mean, m2 [2]float64
	groupMoments(row, lab, 2, n[:], mean[:], m2[:])
	if n[0] != 2 || n[1] != 2 {
		t.Errorf("counts = %v, want [2 2]", n)
	}
}

func BenchmarkWelchT76(b *testing.B) {
	// One row of the paper's benchmark dataset: 76 columns.
	row := make([]float64, 76)
	for i := range row {
		row[i] = float64(i%17) * 1.37
	}
	lab := twoClassLabels(38, 38)
	d, _ := NewDesign(Welch, lab)
	f := d.Func()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f(row, lab)
	}
}

func BenchmarkOnewayF76(b *testing.B) {
	row := make([]float64, 76)
	lab := make([]int, 76)
	for i := range row {
		row[i] = float64(i%13) * 0.7
		lab[i] = i % 4
	}
	d, _ := NewDesign(F, lab)
	f := d.Func()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f(row, lab)
	}
}
