package stat

import (
	"math"
	"strings"
	"testing"

	"sprint/internal/matrix"
)

// lcg is a tiny deterministic generator for test data and labellings.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func (l *lcg) float() float64 { return float64(l.next()%100000)/7000 - 7 }

func (l *lcg) shuffle(lab []int) {
	for i := len(lab) - 1; i > 0; i-- {
		j := int(l.next() % uint64(i+1))
		lab[i], lab[j] = lab[j], lab[i]
	}
}

func testMatrix(rows, cols int, seed uint64, withNA bool) matrix.Matrix {
	m := matrix.New(rows, cols)
	r := lcg(seed)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.float()
		}
		if withNA && i%3 == 0 {
			row[(i*5+1)%cols] = math.NaN()
		}
	}
	return m
}

// kernelCases returns a design and matching label permuter per test.
func kernelCases(t *testing.T) []struct {
	name   string
	design *Design
	relab  func(*lcg, []int)
} {
	t.Helper()
	mk := func(test Test, labels []int) *Design {
		d, err := NewDesign(test, labels)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	shuffleAll := func(r *lcg, lab []int) { r.shuffle(lab) }
	flipPairs := func(r *lcg, lab []int) {
		for j := 0; j < len(lab)/2; j++ {
			if r.next()%2 == 1 {
				lab[2*j], lab[2*j+1] = lab[2*j+1], lab[2*j]
			}
		}
	}
	shuffleBlocks := func(k int) func(*lcg, []int) {
		return func(r *lcg, lab []int) {
			for b := 0; b < len(lab)/k; b++ {
				seg := lab[b*k : (b+1)*k]
				r.shuffle(seg)
			}
		}
	}
	return []struct {
		name   string
		design *Design
		relab  func(*lcg, []int)
	}{
		{"t", mk(Welch, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}), shuffleAll},
		{"t.equalvar", mk(TEqualVar, []int{0, 0, 0, 1, 1, 1, 1, 1, 1, 1}), shuffleAll},
		{"wilcoxon", mk(Wilcoxon, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}), shuffleAll},
		{"f", mk(F, []int{0, 0, 0, 1, 1, 1, 2, 2, 2}), shuffleAll},
		{"pairt", mk(PairT, []int{0, 1, 1, 0, 0, 1, 1, 0, 0, 1}), flipPairs},
		{"blockf", mk(BlockF, []int{0, 1, 2, 2, 0, 1, 1, 2, 0}), shuffleBlocks(3)},
	}
}

// statsOne evaluates every row of k under one labelling the way the engine
// does in maxt.Process and for a prep's observed statistics: a batch of
// one through OpenBatch + StatsRows.
func statsOne(k BatchKernel, lab []int, out []float64) {
	s := &BatchScratch{}
	k.OpenBatch(lab, 1, s)
	k.StatsRows(0, k.Rows(), out, 1, 1, s)
}

// TestKernelAgreesWithLegacyFunc: the kernel and the per-row statistic
// function must agree to rounding (and exactly on NaN-ness) for every test
// and many random labellings, with and without missing values.
func TestKernelAgreesWithLegacyFunc(t *testing.T) {
	for _, tc := range kernelCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := tc.design
			for _, withNA := range []bool{false, true} {
				m := testMatrix(9, d.N, 0xabcdef^uint64(d.Test), withNA)
				if d.NeedsRanks() {
					scratch := make([]int, d.N)
					for i := 0; i < m.Rows; i++ {
						Ranks(m.Row(i), scratch)
					}
				}
				k := mustKernel(t, d, m)
				fn := d.Func()
				out := make([]float64, m.Rows)
				lab := append([]int(nil), d.Labels...)
				r := lcg(7)
				for trial := 0; trial < 50; trial++ {
					statsOne(k, lab, out)
					for i := 0; i < m.Rows; i++ {
						want := fn(m.Row(i), lab)
						if math.IsNaN(want) != math.IsNaN(out[i]) {
							t.Fatalf("NA=%v trial %d row %d: kernel %v, legacy %v", withNA, trial, i, out[i], want)
						}
						if math.IsNaN(want) {
							continue
						}
						diff := math.Abs(out[i] - want)
						if diff > 1e-9*math.Max(math.Abs(want), 1) {
							t.Fatalf("NA=%v trial %d row %d: kernel %v, legacy %v", withNA, trial, i, out[i], want)
						}
					}
					tc.relab(&r, lab)
				}
			}
		})
	}
}

// TestTwoSampleComplementExactNegation pins the tie discipline: the
// complement labelling must produce the bitwise-negated statistic, for
// the NaN-bearing balanced case included.
func TestTwoSampleComplementExactNegation(t *testing.T) {
	labels := []int{0, 1, 0, 1, 1, 0, 1, 0}
	for _, test := range []Test{Welch, TEqualVar, Wilcoxon} {
		d, err := NewDesign(test, labels)
		if err != nil {
			t.Fatal(err)
		}
		m := testMatrix(10, d.N, 0x1234, true)
		if d.NeedsRanks() {
			for i := 0; i < m.Rows; i++ {
				Ranks(m.Row(i), nil)
			}
		}
		k := mustKernel(t, d, m)
		comp := make([]int, len(labels))
		for i, l := range labels {
			comp[i] = 1 - l
		}
		a := make([]float64, m.Rows)
		b := make([]float64, m.Rows)
		statsOne(k, labels, a)
		statsOne(k, comp, b)
		for i := range a {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
					t.Errorf("%v row %d: NaN asymmetry %v vs %v", test, i, a[i], b[i])
				}
				continue
			}
			if b[i] != -a[i] {
				t.Errorf("%v row %d: complement %v != -%v exactly", test, i, b[i], a[i])
			}
		}
	}
}

// TestFRelabelExactInvariance pins the canonical-order reduction: a
// uniform class relabelling must leave the F statistic bitwise unchanged.
func TestFRelabelExactInvariance(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2, 0, 1, 2}
	d, err := NewDesign(F, labels)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(8, d.N, 0x777, true)
	k := mustKernel(t, d, m)
	perms := [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}, {2, 1, 0}}
	base := make([]float64, m.Rows)
	statsOne(k, labels, base)
	relab := make([]int, len(labels))
	out := make([]float64, m.Rows)
	for _, p := range perms[1:] {
		for i, l := range labels {
			relab[i] = p[l]
		}
		statsOne(k, relab, out)
		for i := range out {
			if !(out[i] == base[i] || (math.IsNaN(out[i]) && math.IsNaN(base[i]))) {
				t.Errorf("relabel %v row %d: F %v != %v exactly", p, i, out[i], base[i])
			}
		}
	}
}

// TestFRelabelInvarianceEqualMoments: two classes can share (sum, sum of
// squares) while differing in size; the canonical order must fall back to
// the count key or a uniform relabelling reassociates the reduction.
func TestFRelabelInvarianceEqualMoments(t *testing.T) {
	labels := []int{0, 0, 1, 1, 1, 2, 2}
	// class 0: {0.1, 0.3} and class 1: {0.3, 0.1, 0.0} have bitwise-equal
	// sums and sums of squares (addition commutes pairwise) but n=2 vs 3.
	row := []float64{0.1, 0.3, 0.3, 0.1, 0.0, 0.2, 0.5}
	d, err := NewDesign(F, labels)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.FromRows([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, d, m)
	base := make([]float64, 1)
	statsOne(k, labels, base)
	perms := [][3]int{{1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}, {2, 1, 0}}
	relab := make([]int, len(labels))
	out := make([]float64, 1)
	for _, p := range perms {
		for i, l := range labels {
			relab[i] = p[l]
		}
		statsOne(k, relab, out)
		if out[0] != base[0] {
			t.Errorf("relabel %v: F %v != %v exactly (equal-moment classes)", p, out[0], base[0])
		}
	}
}

// TestPairTFullFlipExactNegation pins the sign-trick exactness: flipping
// every pair negates the statistic bitwise.
func TestPairTFullFlipExactNegation(t *testing.T) {
	labels := []int{0, 1, 1, 0, 0, 1, 0, 1}
	d, err := NewDesign(PairT, labels)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(6, d.N, 0x5150, true)
	k := mustKernel(t, d, m)
	flip := make([]int, len(labels))
	for i, l := range labels {
		flip[i] = 1 - l
	}
	a := make([]float64, m.Rows)
	b := make([]float64, m.Rows)
	statsOne(k, labels, a)
	statsOne(k, flip, b)
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
				t.Errorf("row %d: NaN asymmetry %v vs %v", i, a[i], b[i])
			}
			continue
		}
		if b[i] != -a[i] {
			t.Errorf("row %d: full flip %v != -%v exactly", i, b[i], a[i])
		}
	}
}

// TestKernelQuantizedZeroVarianceNaN: a labelling that makes every group
// constant must yield NaN exactly as the legacy Welford path does, even
// though the subtraction-form moments leave a rounding residual on
// quantized data (the clampM2 tie to legacy semantics).
func TestKernelQuantizedZeroVarianceNaN(t *testing.T) {
	const v = 0.1
	check := func(name string, test Test, labels []int, row []float64) {
		t.Helper()
		d, err := NewDesign(test, labels)
		if err != nil {
			t.Fatal(err)
		}
		if legacy := d.Func()(row, labels); !math.IsNaN(legacy) {
			t.Fatalf("%s: legacy path gave %v, expected NaN test data", name, legacy)
		}
		m, err := matrix.FromRows([][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		k := mustKernel(t, d, m)
		out := make([]float64, 1)
		statsOne(k, labels, out)
		if !math.IsNaN(out[0]) {
			t.Errorf("%s: kernel gave %v for a zero-variance labelling, want NaN", name, out[0])
		}
	}
	check("welch", Welch, []int{0, 0, 0, 1, 1, 1}, []float64{v, v, v, 2 * v, 2 * v, 2 * v})
	check("equalvar", TEqualVar, []int{0, 0, 0, 1, 1, 1}, []float64{v, v, v, 2 * v, 2 * v, 2 * v})
	check("f", F, []int{0, 0, 1, 1, 2, 2}, []float64{v, v, 2 * v, 2 * v, 3 * v, 3 * v})
	// Pairs chosen so every difference is the same bit pattern (0 + 2v is
	// exact), making the pair variance mathematically and legacy-exactly
	// zero while the sum-form mean picks up rounding.
	check("pairt", PairT, []int{0, 1, 0, 1, 0, 1, 0, 1},
		[]float64{0, 2 * v, 0, 2 * v, 0, 2 * v, 0, 2 * v})
}

// TestKernelConstantRowsNaN: rows with no variance must be NaN for every
// labelling (the legacy zero-variance behaviour).
func TestKernelConstantRowsNaN(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	for _, test := range []Test{Welch, TEqualVar} {
		d, _ := NewDesign(test, labels)
		m, err := matrix.FromRows([][]float64{
			{4, 4, 4, 4, 4, 4},
			{4, 4, math.NaN(), 4, 4, 4},
			{1, 2, 3, 4, 5, 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		k := mustKernel(t, d, m)
		out := make([]float64, m.Rows)
		statsOne(k, labels, out)
		if !math.IsNaN(out[0]) || !math.IsNaN(out[1]) {
			t.Errorf("%v: constant rows gave (%v, %v), want NaN", test, out[0], out[1])
		}
		if math.IsNaN(out[2]) {
			t.Errorf("%v: varying row gave NaN", test)
		}
	}
}

// TestNewKernelShapeValidation rejects mismatched matrices.
func TestNewKernelShapeValidation(t *testing.T) {
	d, _ := NewDesign(Welch, []int{0, 0, 1, 1})
	if _, err := NewKernel(d, matrix.New(3, 5), nil); err == nil {
		t.Error("NewKernel accepted a column-count mismatch")
	}
	bad := matrix.Matrix{Data: make([]float64, 7), Rows: 2, Cols: 4}
	if _, err := NewKernel(d, bad, nil); err == nil {
		t.Error("NewKernel accepted an inconsistent flat buffer")
	}
	for _, order := range [][]int{{0, 3}, {-1}} {
		if _, err := NewKernel(d, matrix.New(3, 4), order); err == nil {
			t.Errorf("NewKernel accepted order %v over 3 rows", order)
		}
	}
}

// TestSetKernelISARejectsSSE2: the retired sse2 lane is an unknown name —
// the error lists the names that exist and the active ISA stays put.
func TestSetKernelISARejectsSSE2(t *testing.T) {
	before := ActiveKernelISA()
	isa, err := SetKernelISA("sse2")
	if err == nil || !strings.Contains(err.Error(), "auto, generic, avx2 or avx512") || isa != before || ActiveKernelISA() != before {
		t.Fatalf(`SetKernelISA("sse2") = %v, %v with %v active; want an error naming auto, generic, avx2, avx512 and %v kept`, isa, err, ActiveKernelISA(), before)
	}
}
