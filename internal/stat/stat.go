// Package stat implements the six test statistics supported by mt.maxT and
// its SPRINT parallel counterpart pmaxT (Section 3.1 of the paper):
//
//	t           two-sample Welch t-statistic (unequal variances)
//	t.equalvar  two-sample t-statistic with pooled variance
//	wilcoxon    standardized rank-sum Wilcoxon statistic
//	f           one-way ANOVA F-statistic
//	pairt       paired t-statistic
//	blockf      F-statistic adjusting for block differences
//
// All statistics operate on one row (gene) of the expression matrix at a
// time, under an arbitrary labelling of the columns (samples).  Permutation
// testing re-labels the columns rather than moving the data, so a statistic
// is a pure function of (row values, label vector).
//
// Missing values are represented as NaN and are excluded from the
// computation, mirroring the `na` parameter of mt.maxT ("all missing values
// will be excluded from the computations").  A statistic that cannot be
// computed (e.g. a group with fewer than two observations, or zero variance
// in every group) is reported as NaN; the maxT engine treats such values as
// never exceeding any threshold.
package stat

import (
	"fmt"
	"math"
)

// Test enumerates the statistics methods of mt.maxT / pmaxT.
type Test int

const (
	// Welch is the default two-sample t-test with unequal variances
	// (mt.maxT test="t").
	Welch Test = iota
	// TEqualVar is the two-sample t-test with pooled variance
	// (test="t.equalvar").
	TEqualVar
	// Wilcoxon is the standardized rank-sum test (test="wilcoxon").
	Wilcoxon
	// F is the one-way ANOVA F-test across k>=2 classes (test="f").
	F
	// PairT is the paired t-test (test="pairt").
	PairT
	// BlockF is the F-test adjusting for block differences
	// (test="blockf").
	BlockF
)

var testNames = map[Test]string{
	Welch:     "t",
	TEqualVar: "t.equalvar",
	Wilcoxon:  "wilcoxon",
	F:         "f",
	PairT:     "pairt",
	BlockF:    "blockf",
}

// String returns the mt.maxT name of the test ("t", "t.equalvar",
// "wilcoxon", "f", "pairt", "blockf").
func (t Test) String() string {
	if s, ok := testNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Test(%d)", int(t))
}

// ParseTest converts an mt.maxT test name into a Test value.
func ParseTest(s string) (Test, error) {
	for t, name := range testNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("stat: unknown test %q (want one of t, t.equalvar, wilcoxon, f, pairt, blockf)", s)
}

// Design captures the validated experimental design derived from the
// classlabel argument: how many classes there are, how columns group into
// pairs or blocks, and which statistic applies.  A Design is immutable after
// construction and safe for concurrent use.
type Design struct {
	Test   Test
	Labels []int // the observed classlabel, one entry per column
	N      int   // number of columns (samples)
	K      int   // number of classes
	Counts []int // observations per class in the observed labelling

	// Pairs is the number of (0,1) pairs for PairT; columns 2j and 2j+1
	// form pair j.
	Pairs int
	// Blocks and BlockSize describe the BlockF layout: Blocks consecutive
	// groups of BlockSize columns, each labelled with a permutation of
	// 0..BlockSize-1.
	Blocks, BlockSize int
}

// NewDesign validates classlabel against the requirements of the chosen test
// and returns the resulting design.  The validation rules follow mt.maxT:
//
//   - t, t.equalvar, wilcoxon: labels must be 0/1 with at least two columns
//     in each class (variance estimates need two observations).
//   - f: labels must cover 0..k-1 for some k >= 2, each class with at least
//     two columns.
//   - pairt: an even number of columns; columns 2j and 2j+1 form a pair and
//     must carry labels {0,1} in either order.
//   - blockf: the label vector must consist of consecutive blocks, each a
//     permutation of 0..k-1; the block size k is inferred from the maximum
//     label + 1 and must divide the column count.
func NewDesign(test Test, classlabel []int) (*Design, error) {
	n := len(classlabel)
	if n == 0 {
		return nil, fmt.Errorf("stat: empty classlabel")
	}
	d := &Design{
		Test:   test,
		Labels: append([]int(nil), classlabel...),
		N:      n,
	}
	maxLabel := 0
	for i, l := range classlabel {
		if l < 0 {
			return nil, fmt.Errorf("stat: classlabel[%d] = %d is negative", i, l)
		}
		if l > maxLabel {
			maxLabel = l
		}
	}
	d.K = maxLabel + 1
	d.Counts = make([]int, d.K)
	for _, l := range classlabel {
		d.Counts[l]++
	}
	for c, cnt := range d.Counts {
		if cnt == 0 {
			return nil, fmt.Errorf("stat: class %d has no columns (labels must cover 0..k-1)", c)
		}
	}

	switch test {
	case Welch, TEqualVar, Wilcoxon:
		if d.K != 2 {
			return nil, fmt.Errorf("stat: test %q requires exactly 2 classes, classlabel has %d", test, d.K)
		}
		if d.Counts[0] < 2 || d.Counts[1] < 2 {
			return nil, fmt.Errorf("stat: test %q requires at least 2 columns per class (have %d and %d)",
				test, d.Counts[0], d.Counts[1])
		}
	case F:
		if d.K < 2 {
			return nil, fmt.Errorf("stat: test \"f\" requires at least 2 classes")
		}
		for c, cnt := range d.Counts {
			if cnt < 2 {
				return nil, fmt.Errorf("stat: test \"f\" requires at least 2 columns in class %d (have %d)", c, cnt)
			}
		}
	case PairT:
		if d.K != 2 {
			return nil, fmt.Errorf("stat: test \"pairt\" requires 2 classes, classlabel has %d", d.K)
		}
		if n%2 != 0 {
			return nil, fmt.Errorf("stat: test \"pairt\" requires an even number of columns, have %d", n)
		}
		d.Pairs = n / 2
		for j := 0; j < d.Pairs; j++ {
			a, b := classlabel[2*j], classlabel[2*j+1]
			if a+b != 1 {
				return nil, fmt.Errorf("stat: pair %d has labels (%d,%d), want one 0 and one 1", j, a, b)
			}
		}
		if d.Pairs < 2 {
			return nil, fmt.Errorf("stat: test \"pairt\" requires at least 2 pairs")
		}
	case BlockF:
		k := d.K
		if k < 2 {
			return nil, fmt.Errorf("stat: test \"blockf\" requires at least 2 treatments")
		}
		if n%k != 0 {
			return nil, fmt.Errorf("stat: test \"blockf\": %d columns not divisible by block size %d", n, k)
		}
		d.BlockSize = k
		d.Blocks = n / k
		if d.Blocks < 2 {
			return nil, fmt.Errorf("stat: test \"blockf\" requires at least 2 blocks")
		}
		seen := make([]bool, k)
		for b := 0; b < d.Blocks; b++ {
			for i := range seen {
				seen[i] = false
			}
			for j := 0; j < k; j++ {
				l := classlabel[b*k+j]
				if seen[l] {
					return nil, fmt.Errorf("stat: block %d repeats treatment %d", b, l)
				}
				seen[l] = true
			}
		}
	default:
		return nil, fmt.Errorf("stat: unknown test %v", test)
	}
	return d, nil
}

// Func returns the statistic evaluator for the design.  The returned
// function computes the statistic of one row under the supplied label
// vector, which must have the same length and class structure as the
// design's observed labels.  It is safe to call the returned function from
// multiple goroutines concurrently as long as each call uses its own row and
// label slices.
func (d *Design) Func() func(row []float64, lab []int) float64 {
	switch d.Test {
	case Welch:
		return welchT
	case TEqualVar:
		return equalVarT
	case Wilcoxon:
		return wilcoxonZ
	case F:
		k := d.K
		return func(row []float64, lab []int) float64 { return onewayF(row, lab, k) }
	case PairT:
		return pairedT
	case BlockF:
		k, l := d.BlockSize, d.Blocks
		return func(row []float64, lab []int) float64 { return blockF(row, lab, k, l) }
	default:
		panic(fmt.Sprintf("stat: Func on invalid design %v", d.Test))
	}
}

// NeedsRanks reports whether the maxT engine must rank-transform the rows
// before evaluating this design's statistic.  Wilcoxon is defined on ranks.
func (d *Design) NeedsRanks() bool { return d.Test == Wilcoxon }

// groupMoments accumulates per-class count, mean and sum of squared
// deviations for one row, skipping NaN entries.  It returns parallel slices
// indexed by class.  Welford's online algorithm keeps it single-pass and
// numerically stable.
func groupMoments(row []float64, lab []int, k int, n []int, mean, m2 []float64) {
	for i := range n {
		n[i], mean[i], m2[i] = 0, 0, 0
	}
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		g := lab[j]
		if g < 0 || g >= k {
			continue
		}
		n[g]++
		delta := v - mean[g]
		mean[g] += delta / float64(n[g])
		m2[g] += float64(delta * (v - mean[g]))
	}
}

// welchT computes the two-sample Welch t-statistic (class 1 mean minus
// class 0 mean, unequal variances).  NaN if either class has fewer than two
// non-missing observations or the standard error is zero.
func welchT(row []float64, lab []int) float64 {
	var n [2]int
	var mean, m2 [2]float64
	groupMoments(row, lab, 2, n[:], mean[:], m2[:])
	if n[0] < 2 || n[1] < 2 {
		return math.NaN()
	}
	v0 := m2[0] / float64(n[0]-1)
	v1 := m2[1] / float64(n[1]-1)
	se := math.Sqrt(v0/float64(n[0]) + v1/float64(n[1]))
	if se == 0 {
		return math.NaN()
	}
	return (mean[1] - mean[0]) / se
}

// equalVarT computes the pooled-variance two-sample t-statistic.
func equalVarT(row []float64, lab []int) float64 {
	var n [2]int
	var mean, m2 [2]float64
	groupMoments(row, lab, 2, n[:], mean[:], m2[:])
	if n[0] < 2 || n[1] < 2 {
		return math.NaN()
	}
	df := float64(n[0] + n[1] - 2)
	pooled := (m2[0] + m2[1]) / df
	se := math.Sqrt(pooled * (1/float64(n[0]) + 1/float64(n[1])))
	if se == 0 {
		return math.NaN()
	}
	return (mean[1] - mean[0]) / se
}

// wilcoxonZ computes the standardized rank-sum statistic.  The caller is
// expected to have rank-transformed the row (see Ranks); the statistic is
// then the standardized sum of class-1 values under sampling without
// replacement:
//
//	z = (S1 - n1*ybar) / sqrt(n0*n1/(n*(n-1)) * sum((y - ybar)^2))
//
// With y equal to mid-ranks this is exactly the tie-corrected Wilcoxon
// z-score.  The formula is valid for arbitrary y, so it degrades gracefully
// if a caller passes raw values.
func wilcoxonZ(row []float64, lab []int) float64 {
	var n [2]int
	var sum [2]float64
	var total, totalSq float64
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		g := lab[j]
		if g < 0 || g > 1 {
			continue
		}
		n[g]++
		sum[g] += v
		total += v
		totalSq += float64(v * v)
	}
	nn := n[0] + n[1]
	if n[0] < 2 || n[1] < 2 || nn < 3 {
		return math.NaN()
	}
	ybar := total / float64(nn)
	ssq := totalSq - float64(float64(nn)*ybar*ybar)
	variance := float64(n[0]) * float64(n[1]) / (float64(nn) * float64(nn-1)) * ssq
	if variance <= 0 {
		return math.NaN()
	}
	return (sum[1] - float64(float64(n[1])*ybar)) / math.Sqrt(variance)
}

// onewayF computes the one-way ANOVA F-statistic across k classes.
func onewayF(row []float64, lab []int, k int) float64 {
	n := make([]int, k)
	mean := make([]float64, k)
	m2 := make([]float64, k)
	groupMoments(row, lab, k, n, mean, m2)
	total := 0
	var grand float64
	for g := 0; g < k; g++ {
		if n[g] < 2 {
			return math.NaN()
		}
		total += n[g]
		grand += float64(mean[g] * float64(n[g]))
	}
	grand /= float64(total)
	var ssBetween, ssWithin float64
	for g := 0; g < k; g++ {
		d := mean[g] - grand
		ssBetween += float64(float64(n[g]) * d * d)
		ssWithin += m2[g]
	}
	dfBetween := float64(k - 1)
	dfWithin := float64(total - k)
	if dfWithin <= 0 || ssWithin == 0 {
		return math.NaN()
	}
	return (ssBetween / dfBetween) / (ssWithin / dfWithin)
}

// pairedT computes the paired t-statistic.  Columns 2j and 2j+1 form pair
// j; the difference is (value labelled 1) - (value labelled 0).  Pairs with
// a missing member are excluded.
func pairedT(row []float64, lab []int) float64 {
	pairs := len(row) / 2
	var m int
	var mean, m2 float64
	for j := 0; j < pairs; j++ {
		a, b := row[2*j], row[2*j+1]
		if math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		d := b - a
		if lab[2*j] == 1 { // pair stored (1,0): difference flips sign
			d = -d
		}
		m++
		delta := d - mean
		mean += delta / float64(m)
		m2 += float64(delta * (d - mean))
	}
	if m < 2 {
		return math.NaN()
	}
	sd := math.Sqrt(m2 / float64(m-1))
	if sd == 0 {
		return math.NaN()
	}
	return mean / (sd / math.Sqrt(float64(m)))
}

// blockF computes the randomized-complete-block F-statistic for treatment
// effects: a two-way ANOVA without interaction, with one observation per
// (block, treatment) cell.  Blocks containing a missing value are excluded
// entirely for that row, preserving the balanced layout the decomposition
// requires.
func blockF(row []float64, lab []int, k, blocks int) float64 {
	treatSum := make([]float64, k)
	blockUsed := 0
	var grand float64
	var ssTotal float64
	// First pass: identify complete blocks and accumulate sums.
	complete := make([]bool, blocks)
	for b := 0; b < blocks; b++ {
		ok := true
		for j := 0; j < k; j++ {
			if math.IsNaN(row[b*k+j]) {
				ok = false
				break
			}
		}
		complete[b] = ok
		if ok {
			blockUsed++
		}
	}
	if blockUsed < 2 {
		return math.NaN()
	}
	total := float64(blockUsed * k)
	blockSum := make([]float64, blocks)
	for b := 0; b < blocks; b++ {
		if !complete[b] {
			continue
		}
		for j := 0; j < k; j++ {
			v := row[b*k+j]
			t := lab[b*k+j]
			treatSum[t] += v
			blockSum[b] += v
			grand += v
		}
	}
	grandMean := grand / total
	for b := 0; b < blocks; b++ {
		if !complete[b] {
			continue
		}
		for j := 0; j < k; j++ {
			d := row[b*k+j] - grandMean
			ssTotal += float64(d * d)
		}
	}
	var ssTreat, ssBlock float64
	for t := 0; t < k; t++ {
		d := treatSum[t]/float64(blockUsed) - grandMean
		ssTreat += float64(float64(blockUsed) * d * d)
	}
	for b := 0; b < blocks; b++ {
		if !complete[b] {
			continue
		}
		d := blockSum[b]/float64(k) - grandMean
		ssBlock += float64(float64(k) * d * d)
	}
	ssError := ssTotal - ssTreat - ssBlock
	dfTreat := float64(k - 1)
	dfError := float64((k - 1) * (blockUsed - 1))
	if dfError <= 0 || ssError <= 0 {
		return math.NaN()
	}
	return (ssTreat / dfTreat) / (ssError / dfError)
}
