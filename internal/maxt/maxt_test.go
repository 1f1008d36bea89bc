package maxt

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/rng"
	"sprint/internal/stat"
)

// newPrep flattens a row-per-slice matrix and builds its prep, as the
// engine's callers do from their flat one.
func newPrep(x [][]float64, d *stat.Design, side Side, nonpara bool) (*Prep, error) {
	m, err := matrix.FromRows(x)
	if err != nil {
		return nil, err
	}
	return NewPrepMatrix(m, d, side, nonpara)
}

// runAll is the serial mt.maxT run: every permutation of gen, counted at
// batches of one, then finalized.
func runAll(p *Prep, gen perm.Generator) *Result {
	c := NewCounts(p.Rows())
	ProcessFrom(p, gen, 0, gen.Total(), c, nil, 1, 0)
	return Finalize(p, c)
}

func mustPrep(t *testing.T, x [][]float64, test stat.Test, labels []int, side Side) *Prep {
	t.Helper()
	d, err := stat.NewDesign(test, labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPrep(x, d, side, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- independent reference implementation ------------------------------

// refWelch recomputes the Welch t with plain two-pass formulas, sharing no
// code with internal/stat.
func refWelch(row []float64, lab []int) float64 {
	var s0, s1 float64
	var n0, n1 int
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		if lab[j] == 0 {
			s0 += v
			n0++
		} else {
			s1 += v
			n1++
		}
	}
	if n0 < 2 || n1 < 2 {
		return math.NaN()
	}
	m0, m1 := s0/float64(n0), s1/float64(n1)
	var v0, v1 float64
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		if lab[j] == 0 {
			v0 += (v - m0) * (v - m0)
		} else {
			v1 += (v - m1) * (v - m1)
		}
	}
	v0 /= float64(n0 - 1)
	v1 /= float64(n1 - 1)
	se := math.Sqrt(v0/float64(n0) + v1/float64(n1))
	if se == 0 {
		return math.NaN()
	}
	return (m1 - m0) / se
}

// refMaxT computes raw and adjusted maxT p-values over an explicit list of
// labellings (the first being the observed one), straight from the Ge &
// Dudoit definition, with no shared code.
func refMaxT(x [][]float64, labellings [][]int, side Side) (rawp, adjp []float64) {
	n := len(x)
	B := len(labellings)
	tr := func(v float64) float64 {
		switch side {
		case Abs:
			return math.Abs(v)
		case Lower:
			return -v
		default:
			return v
		}
	}
	obs := make([]float64, n)
	for i := range x {
		obs[i] = tr(refWelch(x[i], labellings[0]))
	}
	// Order by decreasing obs (insertion sort, ties by index).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if obs[b] > obs[a] || (obs[b] == obs[a] && b < a) {
				order[j-1], order[j] = b, a
			}
		}
	}
	rawCount := make([]int, n)
	adjCount := make([]int, n)
	for _, lab := range labellings {
		z := make([]float64, n)
		for i := range x {
			z[i] = tr(refWelch(x[i], lab))
			if math.IsNaN(z[i]) {
				z[i] = math.Inf(-1)
			}
		}
		for i := range z {
			if z[i] >= obs[i] {
				rawCount[i]++
			}
		}
		u := math.Inf(-1)
		for j := n - 1; j >= 0; j-- {
			r := order[j]
			if z[r] > u {
				u = z[r]
			}
			if u >= obs[r] {
				adjCount[r]++
			}
		}
	}
	rawp = make([]float64, n)
	adjp = make([]float64, n)
	for i := range rawp {
		rawp[i] = float64(rawCount[i]) / float64(B)
	}
	prev := 0.0
	for _, r := range order {
		v := float64(adjCount[r]) / float64(B)
		if v < prev {
			v = prev
		}
		adjp[r] = v
		prev = v
	}
	return rawp, adjp
}

// enumerate all labellings for a two-class design, observed first.
func allTwoClassLabellings(labels []int) [][]int {
	n := len(labels)
	n1 := 0
	for _, l := range labels {
		n1 += l
	}
	var out [][]int
	out = append(out, append([]int(nil), labels...))
	var rec func(start, left int, cur []int)
	var positions []int
	rec = func(start, left int, cur []int) {
		if left == 0 {
			lab := make([]int, n)
			for _, p := range cur {
				lab[p] = 1
			}
			same := true
			for i := range lab {
				if lab[i] != labels[i] {
					same = false
					break
				}
			}
			if !same {
				out = append(out, lab)
			}
			return
		}
		for p := start; p <= n-left; p++ {
			rec(p+1, left-1, append(cur, p))
		}
	}
	rec(0, n1, positions)
	return out
}

// --- tests ---------------------------------------------------------------

// tinyX uses generic values (all distinct, irregular digits) so that no two
// labellings produce statistics within floating-point rounding of each
// other except the exact mirror-symmetry ties both implementations resolve
// identically.  Knife-edge ties would otherwise let the Welford-based
// implementation and the two-pass reference disagree on >= comparisons.
var tinyX = [][]float64{
	{9.137, 8.7411, 9.3087, 1.2733, 1.0241, 1.4139},  // strongly differential
	{5.0319, 4.8157, 5.1731, 4.9213, 5.2677, 5.0887}, // null
	{2.0443, 2.2371, 1.9219, 3.1357, 2.9533, 3.0641}, // mildly differential
	{7.0129, 6.5237, 7.2341, 6.8431, 7.1543, 6.6719}, // null
}

var tinyLabels = []int{0, 0, 0, 1, 1, 1}

func TestRunMatchesReferenceOnCompleteEnumeration(t *testing.T) {
	for _, side := range []Side{Abs, Upper, Lower} {
		p := mustPrep(t, tinyX, stat.Welch, tinyLabels, side)
		gen, err := perm.NewComplete(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		got := runAll(p, gen)
		wantRaw, wantAdj := refMaxT(tinyX, allTwoClassLabellings(tinyLabels), side)
		if got.B != 20 {
			t.Fatalf("side %v: B = %d, want 20 (C(6,3))", side, got.B)
		}
		for i := range tinyX {
			if math.Abs(got.RawP[i]-wantRaw[i]) > 1e-12 {
				t.Errorf("side %v row %d: rawp = %v, want %v", side, i, got.RawP[i], wantRaw[i])
			}
			if math.Abs(got.AdjP[i]-wantAdj[i]) > 1e-12 {
				t.Errorf("side %v row %d: adjp = %v, want %v", side, i, got.AdjP[i], wantAdj[i])
			}
		}
	}
}

func TestChunkedCountsEqualSerialCounts(t *testing.T) {
	// The parallel invariant (Figure 2): processing the permutation
	// sequence in disjoint chunks and merging the counts must reproduce
	// the serial result exactly, for every generator type.
	d, _ := stat.NewDesign(stat.Welch, tinyLabels)
	p, _ := newPrep(tinyX, d, Abs, false)

	gens := map[string]perm.Generator{
		"random": perm.NewRandom(d, 42, 101),
	}
	if g, err := perm.NewComplete(d); err == nil {
		gens["complete"] = g
	}
	for name, gen := range gens {
		B := gen.Total()
		serial := NewCounts(len(tinyX))
		ProcessFrom(p, gen, 0, B, serial, nil, 1, 0)

		merged := NewCounts(len(tinyX))
		bounds := []int64{0, B / 4, B / 2, 3 * B / 4, B}
		for w := 0; w < 4; w++ {
			part := NewCounts(len(tinyX))
			ProcessFrom(p, gen, bounds[w], bounds[w+1], part, nil, 1, 0)
			merged.Merge(part)
		}
		if merged.B != serial.B {
			t.Fatalf("%s: merged B=%d, serial B=%d", name, merged.B, serial.B)
		}
		for i := range serial.Raw {
			if serial.Raw[i] != merged.Raw[i] || serial.Adj[i] != merged.Adj[i] {
				t.Errorf("%s row %d: serial (raw=%d,adj=%d) != merged (raw=%d,adj=%d)",
					name, i, serial.Raw[i], serial.Adj[i], merged.Raw[i], merged.Adj[i])
			}
		}
	}
}

func TestStoredGeneratorChunkedEqualsSerial(t *testing.T) {
	d, _ := stat.NewDesign(stat.Welch, tinyLabels)
	p, _ := newPrep(tinyX, d, Abs, false)
	const B = 61
	serialGen := perm.NewStored(d, 9, B, 0, B)
	serial := NewCounts(len(tinyX))
	ProcessFrom(p, serialGen, 0, B, serial, nil, 1, 0)

	merged := NewCounts(len(tinyX))
	bounds := []int64{0, 21, 41, B}
	for w := 0; w < 3; w++ {
		lo, hi := bounds[w], bounds[w+1]
		gen := perm.NewStored(d, 9, B, lo, hi)
		part := NewCounts(len(tinyX))
		ProcessFrom(p, gen, lo, hi, part, nil, 1, 0)
		merged.Merge(part)
	}
	for i := range serial.Raw {
		if serial.Raw[i] != merged.Raw[i] || serial.Adj[i] != merged.Adj[i] {
			t.Errorf("row %d: stored chunked counts differ from serial", i)
		}
	}
}

func TestPValuesAtLeastOneOverB(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	gen := perm.NewRandom(p.Design, 7, 200)
	res := runAll(p, gen)
	for i := range tinyX {
		if res.RawP[i] < 1.0/float64(res.B) {
			t.Errorf("row %d: rawp = %v < 1/B", i, res.RawP[i])
		}
		if res.AdjP[i] < res.RawP[i]-1e-12 {
			t.Errorf("row %d: adjp %v < rawp %v", i, res.AdjP[i], res.RawP[i])
		}
		if res.RawP[i] > 1 || res.AdjP[i] > 1 {
			t.Errorf("row %d: p-values out of [1/B, 1]: raw=%v adj=%v", i, res.RawP[i], res.AdjP[i])
		}
	}
}

func TestAdjustedMonotoneAlongOrder(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	res := runAll(p, perm.NewRandom(p.Design, 3, 500))
	prev := 0.0
	for _, r := range res.Order {
		if math.IsNaN(res.AdjP[r]) {
			break
		}
		if res.AdjP[r] < prev {
			t.Fatalf("adjusted p-values not monotone along order: %v after %v", res.AdjP[r], prev)
		}
		prev = res.AdjP[r]
	}
}

func TestDifferentialGeneRanksFirst(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	res := runAll(p, perm.NewRandom(p.Design, 11, 1000))
	if res.Order[0] != 0 {
		t.Errorf("most significant row = %d, want 0 (the spiked gene)", res.Order[0])
	}
	if res.AdjP[0] >= res.AdjP[1] {
		t.Errorf("spiked gene adjp %v not below null gene adjp %v", res.AdjP[0], res.AdjP[1])
	}
}

func TestNaNRowHandling(t *testing.T) {
	nan := math.NaN()
	x := [][]float64{
		{9, 8, 9, 1, 1, 2},
		{nan, nan, nan, nan, nan, nan}, // uncomputable row
		{5, 5, 6, 5, 6, 5},
	}
	p := mustPrep(t, x, stat.Welch, tinyLabels, Abs)
	if p.Valid != 2 {
		t.Fatalf("Valid = %d, want 2", p.Valid)
	}
	res := runAll(p, perm.NewRandom(p.Design, 5, 100))
	if !math.IsNaN(res.RawP[1]) || !math.IsNaN(res.AdjP[1]) {
		t.Errorf("NaN row p-values = (%v, %v), want NaN", res.RawP[1], res.AdjP[1])
	}
	if math.IsNaN(res.RawP[0]) || math.IsNaN(res.RawP[2]) {
		t.Error("valid rows received NaN p-values")
	}
	if res.Order[2] != 1 {
		t.Errorf("NaN row not ordered last: order = %v", res.Order)
	}
}

func TestSideTransforms(t *testing.T) {
	// Row 0 has group 1 << group 0, so it is extreme for "lower" but not
	// for "upper".
	x := [][]float64{
		{9, 8, 9, 1, 1, 2},
		{1, 2, 1, 9, 8, 9},
	}
	pu := mustPrep(t, x, stat.Welch, tinyLabels, Upper)
	pl := mustPrep(t, x, stat.Welch, tinyLabels, Lower)
	genU, _ := perm.NewComplete(pu.Design)
	resU := runAll(pu, genU)
	genL, _ := perm.NewComplete(pl.Design)
	resL := runAll(pl, genL)
	if resU.RawP[1] >= resU.RawP[0] {
		t.Errorf("upper: positive-shift row should be more significant: %v vs %v", resU.RawP[1], resU.RawP[0])
	}
	if resL.RawP[0] >= resL.RawP[1] {
		t.Errorf("lower: negative-shift row should be more significant: %v vs %v", resL.RawP[0], resL.RawP[1])
	}
}

func TestParseSideRoundTrip(t *testing.T) {
	for _, s := range []Side{Abs, Upper, Lower} {
		got, err := ParseSide(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSide(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSide("two-sided"); err == nil {
		t.Error("ParseSide accepted unknown side")
	}
}

// TestRankRowsOrder: the step-down order is decreasing Obs, ties by row
// index, NaN rows last — a total order, so the unstable sort returns the
// permutation a stable sort on Obs alone does.  Statistics drawn from a few
// values, with NaN and both signed zeros (which tie), make ties many deep.
func TestRankRowsOrder(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, 2.5, -2.5, 7}
	src := rng.New(17)
	for trial := 0; trial < 60; trial++ {
		st := make([]float64, 1+src.Intn(300))
		for i := range st {
			st[i] = pool[src.Intn(len(pool))]
		}
		for _, side := range []Side{Abs, Upper, Lower} {
			p := &Prep{Side: side, Stat: st, Obs: make([]float64, len(st))}
			p.rankRows()
			want := make([]int, len(st))
			for i := range want {
				want[i] = i
			}
			valid := 0
			for _, v := range p.Obs {
				if !math.IsNaN(v) {
					valid++
				}
			}
			slices.SortStableFunc(want, func(a, b int) int {
				va, vb := p.Obs[a], p.Obs[b]
				switch na, nb := math.IsNaN(va), math.IsNaN(vb); {
				case na && nb:
					return 0
				case na:
					return 1
				case nb || va > vb:
					return -1
				case va < vb:
					return 1
				}
				return 0
			})
			if !slices.Equal(p.Order, want) || p.Valid != valid {
				t.Fatalf("trial %d %v: order %v valid %d, want %v valid %d (obs %v)",
					trial, side, p.Order, p.Valid, want, valid, p.Obs)
			}
		}
	}
}

func TestNewPrepValidation(t *testing.T) {
	d, _ := stat.NewDesign(stat.Welch, tinyLabels)
	if _, err := NewPrepMatrix(matrix.Matrix{}, d, Abs, false); err == nil {
		t.Error("NewPrepMatrix accepted empty matrix")
	}
	if _, err := NewPrepMatrix(matrix.New(1, 2), d, Abs, false); err == nil {
		t.Error("NewPrepMatrix accepted a matrix narrower than the design")
	}
	short := matrix.Matrix{Rows: 2, Cols: d.N, Data: make([]float64, d.N)}
	if _, err := NewPrepMatrix(short, d, Abs, false); err == nil {
		t.Error("NewPrepMatrix accepted data shorter than rows x cols")
	}
}

func TestNewPrepDoesNotModifyInput(t *testing.T) {
	m, _ := matrix.FromRows([][]float64{{3, 1, 2, 5, 4, 6}})
	orig := m.Clone()
	d, _ := stat.NewDesign(stat.Wilcoxon, tinyLabels)
	if _, err := NewPrepMatrix(m, d, Abs, false); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Data {
		if m.Data[i] != orig.Data[i] {
			t.Fatal("NewPrepMatrix modified the caller's matrix")
		}
	}
}

func TestNonparaRankTransform(t *testing.T) {
	// With nonpara, Welch t on ranks must equal Welch t on pre-ranked data.
	x := [][]float64{{30, 10, 20, 60, 50, 40}}
	d, _ := stat.NewDesign(stat.Welch, tinyLabels)
	p1, _ := newPrep(x, d, Abs, true)
	ranked := [][]float64{{3, 1, 2, 6, 5, 4}}
	p2, _ := newPrep(ranked, d, Abs, false)
	if p1.Stat[0] != p2.Stat[0] {
		t.Errorf("nonpara stat %v != pre-ranked stat %v", p1.Stat[0], p2.Stat[0])
	}
}

func TestMergePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge with mismatched sizes did not panic")
		}
	}()
	NewCounts(3).Merge(NewCounts(4))
}

func TestQuickAdjGeqRaw(t *testing.T) {
	// Property: step-down maxT adjusted p-values dominate raw p-values,
	// for arbitrary data.
	f := func(seed uint8) bool {
		src := uint64(seed) + 1
		x := make([][]float64, 5)
		for i := range x {
			x[i] = make([]float64, 6)
			for j := range x[i] {
				src = src*6364136223846793005 + 1442695040888963407
				x[i][j] = float64(src%1000)/100 - 5
			}
		}
		d, _ := stat.NewDesign(stat.Welch, tinyLabels)
		p, err := newPrep(x, d, Abs, false)
		if err != nil {
			return false
		}
		res := runAll(p, perm.NewRandom(d, src, 50))
		for i := range x {
			if math.IsNaN(res.AdjP[i]) {
				continue
			}
			if res.AdjP[i] < res.RawP[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWilcoxonCompleteExactness(t *testing.T) {
	// For Wilcoxon on a complete enumeration, the raw p-value of the most
	// extreme possible data split must be 2/20 for side abs (the observed
	// split and its mirror are the two most extreme of C(6,3)=20).
	x := [][]float64{{1, 2, 3, 10, 11, 12}}
	p := mustPrep(t, x, stat.Wilcoxon, tinyLabels, Abs)
	gen, err := perm.NewComplete(p.Design)
	if err != nil {
		t.Fatal(err)
	}
	res := runAll(p, gen)
	if math.Abs(res.RawP[0]-2.0/20) > 1e-12 {
		t.Errorf("wilcoxon exact rawp = %v, want 0.1", res.RawP[0])
	}
}

func BenchmarkProcess100x76x100(b *testing.B) {
	// 100 genes, 76 samples, 100 permutations per iteration: a scaled
	// slice of the paper's kernel workload.
	labels := make([]int, 76)
	for i := 38; i < 76; i++ {
		labels[i] = 1
	}
	d, _ := stat.NewDesign(stat.Welch, labels)
	x := make([][]float64, 100)
	s := uint64(7)
	for i := range x {
		x[i] = make([]float64, 76)
		for j := range x[i] {
			s = s*2862933555777941757 + 3037000493
			x[i][j] = float64(s%997) / 100
		}
	}
	p, _ := newPrep(x, d, Abs, false)
	gen := perm.NewRandom(d, 1, 1<<40)
	scratch := p.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCounts(len(x))
		ProcessFrom(p, gen, int64(i)*100, int64(i)*100+100, c, scratch, 1, 0)
	}
}
