package maxt

import (
	"math"
	"testing"

	"sprint/internal/perm"
	"sprint/internal/stat"
)

// Independent reference implementations for the F and paired-t paths,
// sharing no code with internal/stat or the engine, used to cross-validate
// complete-enumeration p-values.

func refOnewayF(row []float64, lab []int, k int) float64 {
	n := make([]int, k)
	sum := make([]float64, k)
	for j, v := range row {
		n[lab[j]]++
		sum[lab[j]] += v
	}
	total := 0
	grand := 0.0
	for g := 0; g < k; g++ {
		if n[g] < 2 {
			return math.NaN()
		}
		total += n[g]
		grand += sum[g]
	}
	grand /= float64(total)
	var ssb, ssw float64
	for g := 0; g < k; g++ {
		m := sum[g] / float64(n[g])
		ssb += float64(n[g]) * (m - grand) * (m - grand)
	}
	for j, v := range row {
		m := sum[lab[j]] / float64(n[lab[j]])
		ssw += (v - m) * (v - m)
	}
	if ssw == 0 {
		return math.NaN()
	}
	return (ssb / float64(k-1)) / (ssw / float64(total-k))
}

func refPairedT(row []float64, lab []int) float64 {
	m := len(row) / 2
	var sum, sumSq float64
	for j := 0; j < m; j++ {
		d := row[2*j+1] - row[2*j]
		if lab[2*j] == 1 {
			d = -d
		}
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(m)
	variance := (sumSq - float64(m)*mean*mean) / float64(m-1)
	if variance <= 0 {
		return math.NaN()
	}
	return mean / math.Sqrt(variance/float64(m))
}

// refExactMaxT runs the full maxT definition over an explicit labelling
// list with an arbitrary statistic.
func refExactMaxT(x [][]float64, labellings [][]int, statFn func([]float64, []int) float64) (rawp, adjp []float64) {
	n := len(x)
	obs := make([]float64, n)
	for i := range x {
		obs[i] = math.Abs(statFn(x[i], labellings[0]))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && obs[order[j]] > obs[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	rawCount := make([]int, n)
	adjCount := make([]int, n)
	for _, lab := range labellings {
		z := make([]float64, n)
		for i := range x {
			z[i] = math.Abs(statFn(x[i], lab))
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
	B := float64(len(labellings))
	for i := range rawp {
		rawp[i] = float64(rawCount[i]) / B
	}
	prev := 0.0
	for _, r := range order {
		v := float64(adjCount[r]) / B
		if v < prev {
			v = prev
		}
		adjp[r] = v
		prev = v
	}
	return rawp, adjp
}

// allMultisetLabellings enumerates every distinct arrangement of the label
// multiset by recursion, observed labelling first.
func allMultisetLabellings(labels []int, k int) [][]int {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	var out [][]int
	out = append(out, append([]int(nil), labels...))
	cur := make([]int, len(labels))
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(labels) {
			same := true
			for i := range cur {
				if cur[i] != labels[i] {
					same = false
					break
				}
			}
			if !same {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			counts[c]--
			cur[pos] = c
			rec(pos + 1)
			counts[c]++
		}
	}
	rec(0)
	return out
}

// allPairFlipLabellings enumerates the 2^m sign-flip labellings, observed
// first (mask 0).
func allPairFlipLabellings(labels []int) [][]int {
	m := len(labels) / 2
	var out [][]int
	for mask := 0; mask < 1<<uint(m); mask++ {
		lab := append([]int(nil), labels...)
		for j := 0; j < m; j++ {
			if mask&(1<<uint(j)) != 0 {
				lab[2*j], lab[2*j+1] = lab[2*j+1], lab[2*j]
			}
		}
		out = append(out, lab)
	}
	return out
}

var fX = [][]float64{
	{2.13, 1.87, 5.04, 5.43, 9.11, 8.76},
	{4.07, 4.19, 4.33, 3.87, 4.25, 4.12},
	{1.03, 7.11, 3.04, 5.12, 2.33, 6.08},
}

func TestFCompleteMatchesReference(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2}
	d, err := stat.NewDesign(stat.F, labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPrep(fX, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := perm.NewComplete(d)
	if err != nil {
		t.Fatal(err)
	}
	got := runAll(p, gen)
	if got.B != 90 { // 6!/(2!2!2!)
		t.Fatalf("B = %d, want 90", got.B)
	}
	wantRaw, wantAdj := refExactMaxT(fX, allMultisetLabellings(labels, 3),
		func(row []float64, lab []int) float64 { return refOnewayF(row, lab, 3) })
	for i := range fX {
		if math.Abs(got.RawP[i]-wantRaw[i]) > 1e-12 {
			t.Errorf("row %d: rawp %v, want %v", i, got.RawP[i], wantRaw[i])
		}
		if math.Abs(got.AdjP[i]-wantAdj[i]) > 1e-12 {
			t.Errorf("row %d: adjp %v, want %v", i, got.AdjP[i], wantAdj[i])
		}
	}
}

func TestPairTCompleteMatchesReference(t *testing.T) {
	x := [][]float64{
		{1.13, 3.27, 2.04, 5.44, 4.18, 4.96, 3.07, 7.31},
		{5.02, 4.87, 5.33, 5.18, 4.76, 5.09, 5.21, 4.93},
	}
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	d, err := stat.NewDesign(stat.PairT, labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPrep(x, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := perm.NewComplete(d)
	if err != nil {
		t.Fatal(err)
	}
	got := runAll(p, gen)
	if got.B != 16 {
		t.Fatalf("B = %d, want 16", got.B)
	}
	wantRaw, wantAdj := refExactMaxT(x, allPairFlipLabellings(labels), refPairedT)
	for i := range x {
		if math.Abs(got.RawP[i]-wantRaw[i]) > 1e-12 {
			t.Errorf("row %d: rawp %v, want %v", i, got.RawP[i], wantRaw[i])
		}
		if math.Abs(got.AdjP[i]-wantAdj[i]) > 1e-12 {
			t.Errorf("row %d: adjp %v, want %v", i, got.AdjP[i], wantAdj[i])
		}
	}
}

func TestPairTSignSymmetryExactness(t *testing.T) {
	// Under complete sign flips, a single row's |paired t| distribution
	// is symmetric: the observed labelling and its full mirror always
	// give equal |t|, so the exact raw p of any row is at least 2/2^m.
	x := [][]float64{{1.1, 9.2, 2.3, 8.1, 0.7, 9.9, 1.5, 8.8}}
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	d, _ := stat.NewDesign(stat.PairT, labels)
	p, _ := newPrep(x, d, Abs, false)
	gen, _ := perm.NewComplete(d)
	res := runAll(p, gen)
	if res.RawP[0] < 2.0/16-1e-12 {
		t.Errorf("rawp = %v below the symmetry floor 2/16", res.RawP[0])
	}
}

// refBlockF is an independent randomized-complete-block F (complete data).
func refBlockF(row []float64, lab []int, k int) float64 {
	blocks := len(row) / k
	treatSum := make([]float64, k)
	blockSum := make([]float64, blocks)
	grand := 0.0
	for b := 0; b < blocks; b++ {
		for j := 0; j < k; j++ {
			v := row[b*k+j]
			treatSum[lab[b*k+j]] += v
			blockSum[b] += v
			grand += v
		}
	}
	n := float64(blocks * k)
	gm := grand / n
	var ssTotal, ssTreat, ssBlock float64
	for _, v := range row {
		ssTotal += (v - gm) * (v - gm)
	}
	for t := 0; t < k; t++ {
		d := treatSum[t]/float64(blocks) - gm
		ssTreat += float64(blocks) * d * d
	}
	for b := 0; b < blocks; b++ {
		d := blockSum[b]/float64(k) - gm
		ssBlock += float64(k) * d * d
	}
	ssErr := ssTotal - ssTreat - ssBlock
	dfErr := float64((k - 1) * (blocks - 1))
	if dfErr <= 0 || ssErr <= 0 {
		return math.NaN()
	}
	return (ssTreat / float64(k-1)) / (ssErr / dfErr)
}

// allBlockLabellings enumerates the (k!)^blocks within-block relabellings
// by recursion over blocks, observed first.
func allBlockLabellings(labels []int, k int) [][]int {
	blocks := len(labels) / k
	perms := permutationsOf(k)
	var out [][]int
	cur := append([]int(nil), labels...)
	var rec func(b int)
	rec = func(b int) {
		if b == blocks {
			same := true
			for i := range cur {
				if cur[i] != labels[i] {
					same = false
					break
				}
			}
			if !same {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		for _, p := range perms {
			for j := 0; j < k; j++ {
				cur[b*k+j] = labels[b*k+p[j]]
			}
			rec(b + 1)
		}
	}
	out = append(out, append([]int(nil), labels...))
	rec(0)
	// Deduplicate: distinct position-permutations can induce the same
	// labelling only if block labels repeat, which the design forbids,
	// so no dedup is needed.
	return out
}

func permutationsOf(k int) [][]int {
	var out [][]int
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), p...))
			return
		}
		for j := i; j < k; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
	return out
}

func TestBlockFCompleteMatchesReference(t *testing.T) {
	x := [][]float64{
		{1.07, 2.13, 3.24, 5.18, 4.02, 6.33},
		{2.91, 2.87, 3.11, 3.04, 2.95, 3.08},
	}
	labels := []int{0, 1, 0, 1, 0, 1} // 3 blocks of 2 treatments
	d, err := stat.NewDesign(stat.BlockF, labels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPrep(x, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := perm.NewComplete(d)
	if err != nil {
		t.Fatal(err)
	}
	got := runAll(p, gen)
	if got.B != 8 { // (2!)^3
		t.Fatalf("B = %d, want 8", got.B)
	}
	wantRaw, wantAdj := refExactMaxT(x, allBlockLabellings(labels, 2),
		func(row []float64, lab []int) float64 { return refBlockF(row, lab, 2) })
	for i := range x {
		if math.Abs(got.RawP[i]-wantRaw[i]) > 1e-12 {
			t.Errorf("row %d: rawp %v, want %v", i, got.RawP[i], wantRaw[i])
		}
		if math.Abs(got.AdjP[i]-wantAdj[i]) > 1e-12 {
			t.Errorf("row %d: adjp %v, want %v", i, got.AdjP[i], wantAdj[i])
		}
	}
}

func TestWilcoxonExactTwoSided(t *testing.T) {
	// 4 vs 4 samples with a perfectly separated row: of C(8,4) = 70
	// labellings only the observed split and its mirror attain the
	// maximal |z|, so the exact two-sided raw p is 2/70.
	x := [][]float64{{1, 2, 3, 4, 10, 11, 12, 13}}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	d, _ := stat.NewDesign(stat.Wilcoxon, labels)
	p, err := newPrep(x, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := perm.NewComplete(d)
	res := runAll(p, gen)
	if res.B != 70 {
		t.Fatalf("B = %d, want 70", res.B)
	}
	if math.Abs(res.RawP[0]-2.0/70) > 1e-12 {
		t.Errorf("wilcoxon exact p = %v, want %v", res.RawP[0], 2.0/70)
	}
}

// TestEqualVarTCompleteMatchesWelchOrdering: with balanced groups the
// pooled and Welch statistics are monotone transforms of each other, so
// complete-enumeration raw p-values must agree exactly.
func TestEqualVarTCompleteVsWelch(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	dW, _ := stat.NewDesign(stat.Welch, labels)
	dE, _ := stat.NewDesign(stat.TEqualVar, labels)
	x := [][]float64{
		{2.17, 3.04, 2.66, 7.13, 6.51, 7.96},
		{4.03, 4.97, 4.51, 4.22, 4.76, 4.40},
	}
	pW, _ := newPrep(x, dW, Abs, false)
	pE, _ := newPrep(x, dE, Abs, false)
	gW, _ := perm.NewComplete(dW)
	gE, _ := perm.NewComplete(dE)
	rW, rE := runAll(pW, gW), runAll(pE, gE)
	for i := range x {
		if math.Abs(rW.RawP[i]-rE.RawP[i]) > 1e-12 {
			t.Errorf("row %d: welch rawp %v != equalvar rawp %v (balanced groups)",
				i, rW.RawP[i], rE.RawP[i])
		}
	}
}
