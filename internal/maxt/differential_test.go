package maxt

import (
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// Differential guard for the flat-matrix kernels: every test × every side
// × nonpara y/n, on NA-bearing matrices, against a test-local maxT over the
// legacy per-row statistic functions (legacyMaxT).
//
// Exactness caveat.  The legacy statistic functions are not self-
// consistent on mathematically tied labellings: Welford accumulation and
// fixed-order class reductions make the computed statistic depend on
// which orbit member (a class relabelling for F, a rank-multiset
// repetition on nonpara data) is being evaluated, so the legacy path
// itself breaks exact ties by ulp noise.  The batched kernels resolve
// those ties exactly (the tie discipline in internal/stat/kernel.go).
// The honest differential contract is therefore two-tiered:
//
//   - where the legacy path IS tie-consistent (the two-sample t tests and
//     the paired t on continuous data; Wilcoxon always, because rank sums
//     are exact in both paths), raw and adjusted p-values must match the
//     reference EXACTLY;
//   - everywhere else, the new path's exceedance counts must lie within
//     the interval the reference path could produce if each of its
//     statistics wiggled by ±ε (ε at relative rounding scale): counts
//     below obs−ε and above obs+ε are unambiguous and must agree, only
//     genuine fp-ties may differ.  On tie-free rows the interval
//     collapses and the bound degenerates to exact equality.

// diffMatrix builds a deterministic rows×cols matrix with a sprinkle of
// missing cells and one fully missing row.
func diffMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[j] = float64(s%100000)/7000 - 7
		}
	}
	// NA-bearing: a missing cell in every third row, a second one in every
	// fourth, and one row entirely missing (its p-values must be NaN on
	// both paths).
	for i := 0; i < rows; i++ {
		if i%3 == 0 {
			m.Row(i)[(i*5+1)%cols] = math.NaN()
		}
		if i%4 == 0 {
			m.Row(i)[(i*7+3)%cols] = math.NaN()
		}
	}
	if rows > 2 {
		for j := range m.Row(2) {
			m.Row(2)[j] = math.NaN()
		}
	}
	return m
}

// legacyMaxT is the maxT the differential tests check against: every
// statistic from Design.Func row by row (stats, rows in original order),
// every permutation of gen counted by the three-pass countPermutation.
// The returned prep carries the observed statistics and step-down order.
func legacyMaxT(m matrix.Matrix, d *stat.Design, side Side, nonpara bool, gen perm.Generator) (res *Result, p *Prep, stats func(lab []int, z []float64)) {
	if d.NeedsRanks() || nonpara {
		m = m.Clone()
		for i := 0; i < m.Rows; i++ {
			stat.Ranks(m.Row(i), nil)
		}
	}
	fn, n := d.Func(), m.Rows
	stats = func(lab []int, z []float64) {
		for i := range z {
			z[i] = fn(m.Row(i), lab)
		}
	}
	p = &Prep{Design: d, Side: side, Stat: make([]float64, n), Obs: make([]float64, n)}
	stats(d.Labels, p.Stat)
	p.rankRows()
	c, lab, z := NewCounts(n), make([]int, d.N), make([]float64, n)
	for b := int64(0); b < gen.Total(); b++ {
		gen.Label(b, lab)
		stats(lab, z)
		p.countPermutation(z, c)
	}
	return Finalize(p, c), p, stats
}

func TestKernelMatchesReferencePathDifferential(t *testing.T) {
	cases := []struct {
		name   string
		test   stat.Test
		labels []int
		// exact: the legacy path is tie-consistent for this test on
		// continuous data, so non-nonpara runs must match it exactly.
		exact bool
	}{
		{"t-balanced", stat.Welch, []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, true},
		{"t-unbalanced", stat.Welch, []int{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, true},
		{"t.equalvar", stat.TEqualVar, []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, true},
		{"wilcoxon", stat.Wilcoxon, []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, true},
		{"f", stat.F, []int{0, 0, 0, 1, 1, 1, 2, 2, 2}, false},
		{"pairt", stat.PairT, []int{0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1}, true},
		{"blockf", stat.BlockF, []int{0, 1, 2, 1, 2, 0, 2, 0, 1}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := stat.NewDesign(tc.test, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			m := diffMatrix(12, d.N, 0x9e3779b97f4a7c15^uint64(len(tc.name)))
			gen, err := perm.NewComplete(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []Side{Abs, Upper, Lower} {
				for _, nonpara := range []bool{false, true} {
					pNew, err := NewPrepMatrix(m, d, side, nonpara)
					if err != nil {
						t.Fatal(err)
					}
					resNew := runAll(pNew, gen)
					resRef, pRef, refStats := legacyMaxT(m, d, side, nonpara, gen)
					label := tc.name + "/" + side.String()
					if nonpara {
						label += "/nonpara"
					}
					compareStats(t, label, resNew, resRef)
					// Wilcoxon sums are exact in both paths even on
					// ranks; the other exact cases lose tie consistency
					// under the nonpara rank transform.
					if tc.exact && (!nonpara || tc.test == stat.Wilcoxon) {
						comparePValuesExact(t, label, resNew, resRef)
					} else {
						comparePValuesCollar(t, label, pNew, pRef, refStats, gen, resNew)
					}
				}
			}
		})
	}
}

// compareStats asserts the observed statistics agree to rounding and have
// identical NaN patterns.
func compareStats(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.B != want.B {
		t.Fatalf("%s: B = %d, want %d", label, got.B, want.B)
	}
	for i := range want.Stat {
		gN, wN := math.IsNaN(got.Stat[i]), math.IsNaN(want.Stat[i])
		if gN != wN {
			t.Errorf("%s row %d: stat NaN-ness %v vs reference %v", label, i, got.Stat[i], want.Stat[i])
			continue
		}
		if gN {
			continue
		}
		diff := math.Abs(got.Stat[i] - want.Stat[i])
		scale := math.Max(math.Abs(want.Stat[i]), 1)
		if diff > 1e-9*scale {
			t.Errorf("%s row %d: stat %v, reference %v", label, i, got.Stat[i], want.Stat[i])
		}
	}
}

// comparePValuesExact demands bitwise-equal p-values (they are count
// ratios over the same denominator) and the identical significance order.
func comparePValuesExact(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for i := range want.RawP {
		if !floatsIdentical(got.RawP[i], want.RawP[i]) {
			t.Errorf("%s row %d: rawp %v != reference %v", label, i, got.RawP[i], want.RawP[i])
		}
		if !floatsIdentical(got.AdjP[i], want.AdjP[i]) {
			t.Errorf("%s row %d: adjp %v != reference %v", label, i, got.AdjP[i], want.AdjP[i])
		}
		if got.Order[i] != want.Order[i] {
			t.Errorf("%s: order[%d] = %d, reference %d", label, i, got.Order[i], want.Order[i])
		}
	}
}

// floatsIdentical treats NaN == NaN and demands bitwise-equal values
// otherwise.
func floatsIdentical(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// comparePValuesCollar replays every permutation through the legacy
// statistic functions and brackets each exceedance count between the
// counts at thresholds obs+ε and obs−ε.  The new path's counts must fall
// inside the bracket: only labellings the reference itself cannot place
// unambiguously (|z−obs| ≤ ε) are allowed to differ.
func comparePValuesCollar(t *testing.T, label string, pNew, pRef *Prep, refStats func([]int, []float64), gen perm.Generator, resNew *Result) {
	t.Helper()
	n := pRef.Rows()
	B := gen.Total()
	lab := make([]int, pRef.Design.N)
	z := make([]float64, n)
	obs := pNew.Obs
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 4e-9 * math.Max(math.Abs(obs[i]), 1)
	}
	order, valid := pNew.Order, pNew.Valid
	lowRaw := make([]int64, n)
	highRaw := make([]int64, n)
	lowAdj := make([]int64, n)
	highAdj := make([]int64, n)
	for b := int64(0); b < B; b++ {
		gen.Label(b, lab)
		refStats(lab, z)
		for i, v := range z {
			if math.IsNaN(v) {
				z[i] = math.Inf(-1)
			} else {
				z[i] = pRef.Side.transform(v)
			}
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(obs[i]) {
				continue
			}
			if z[i] >= obs[i]+eps[i] {
				lowRaw[i]++
			}
			if z[i] >= obs[i]-eps[i] {
				highRaw[i]++
			}
		}
		u := math.Inf(-1)
		for j := valid - 1; j >= 0; j-- {
			r := order[j]
			if z[r] > u {
				u = z[r]
			}
			if u >= obs[r]+eps[r] {
				lowAdj[r]++
			}
			if u >= obs[r]-eps[r] {
				highAdj[r]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(obs[i]) {
			if !math.IsNaN(resNew.RawP[i]) || !math.IsNaN(resNew.AdjP[i]) {
				t.Errorf("%s row %d: NaN row got p-values (%v, %v)", label, i, resNew.RawP[i], resNew.AdjP[i])
			}
			continue
		}
		raw := int64(math.Round(resNew.RawP[i] * float64(B)))
		if raw < lowRaw[i] || raw > highRaw[i] {
			t.Errorf("%s row %d: raw count %d outside reference bracket [%d, %d]",
				label, i, raw, lowRaw[i], highRaw[i])
		}
	}
	// Adjusted p-values pass through the step-down monotone enforcement,
	// which is monotone in the count vector: bracket after enforcing.
	monoLo := monotoneAlong(order, valid, lowAdj, B)
	monoHi := monotoneAlong(order, valid, highAdj, B)
	for j := 0; j < valid; j++ {
		r := order[j]
		if resNew.AdjP[r] < monoLo[r]-1e-15 || resNew.AdjP[r] > monoHi[r]+1e-15 {
			t.Errorf("%s row %d: adjp %v outside reference bracket [%v, %v]",
				label, r, resNew.AdjP[r], monoLo[r], monoHi[r])
		}
	}
}

// monotoneAlong applies the step-down monotone enforcement to counts along
// the significance order, returning p-values.
func monotoneAlong(order []int, valid int, counts []int64, B int64) []float64 {
	out := make([]float64, len(counts))
	prev := 0.0
	for j := 0; j < valid; j++ {
		r := order[j]
		v := float64(counts[r]) / float64(B)
		if v < prev {
			v = prev
		}
		out[r] = v
		prev = v
	}
	return out
}

// TestKernelMatchesReferenceRandomGenerator repeats the differential check
// under the Monte-Carlo generator, whose labellings are what production
// B=10000 runs actually evaluate.
func TestKernelMatchesReferenceRandomGenerator(t *testing.T) {
	labels := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	for _, test := range []stat.Test{stat.Welch, stat.TEqualVar, stat.Wilcoxon} {
		d, err := stat.NewDesign(test, labels)
		if err != nil {
			t.Fatal(err)
		}
		m := diffMatrix(15, d.N, 0xdeadbeef)
		gen := perm.NewRandom(d, 99, 400)
		for _, side := range []Side{Abs, Upper, Lower} {
			pNew, err := NewPrepMatrix(m, d, side, false)
			if err != nil {
				t.Fatal(err)
			}
			resRef, _, _ := legacyMaxT(m, d, side, false, gen)
			resNew := runAll(pNew, gen)
			label := test.String() + "/" + side.String() + "/random"
			compareStats(t, label, resNew, resRef)
			comparePValuesExact(t, label, resNew, resRef)
		}
	}
}
