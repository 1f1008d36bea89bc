// Batched statistics kernels: the flat-matrix engine behind maxT/pmaxT.
//
// The legacy path (Design.Func) evaluates one row at a time through a
// function pointer and recomputes every group moment from scratch for each
// of the B permutations — the dominant cost the paper's Tables I–V time as
// the "main kernel".  The kernels here exploit two facts the per-row path
// cannot:
//
//  1. The matrix never changes across permutations, only the labelling
//     does.  Every label-independent moment — per-row non-missing count,
//     total sum, total sum of squares, paired differences, block sums —
//     is computed ONCE at kernel construction and reused by all B
//     permutations.
//  2. The per-row totals determine either group's moments from the
//     other's, so the two-sample kernels accumulate ONE group's moments
//     per permutation and derive the second group's by subtraction:
//     n0 = n - n1, s0 = S - s1, q0 = Q - q1.  That roughly halves the
//     per-permutation element visits and replaces Welford's
//     division-per-element update with an add and a multiply.  (Which
//     group is accumulated is chosen per kernel: the smaller class where
//     sums are exact, the class containing column 0 where floating-point
//     tie symmetry demands it — see the tie discipline below.)
//
// A kernel evaluates a range of rows under a batch of labellings in one
// call (batch.go), so the engine pays one virtual dispatch per row block
// instead of one per row, and walks a single contiguous allocation.
package stat

import (
	"fmt"
	"math"
	"unsafe"

	"sprint/internal/matrix"
)

// NewKernel builds the batched kernel for the design over the rows of m,
// precomputing the per-row moments.  m must already be in its final form:
// NA cells as NaN and, for rank-based statistics, rank-transformed rows
// (maxt.NewPrepMatrix does both).
//
// With order nil the kernel reads m in place and keeps a reference to
// m.Data; callers must not mutate it afterwards.  Otherwise kernel row j is
// m's row order[j], held in a layout the kernel owns and m is not
// referenced: row octets for the two-sample t (rowGroups), a row-major copy
// for F, block F and Wilcoxon, the pair differences for paired t.  maxt's
// observed-statistics pass reads the caller's matrix in place, and its run
// kernel, in step-down order, comes from that kernel through
// ReorderKernel.
func NewKernel(d *Design, m matrix.Matrix, order []int) (BatchKernel, error) {
	if err := checkSource(d, m, order); err != nil {
		return nil, err
	}
	src := rowSource{m: m, order: order}
	switch d.Test {
	case Welch:
		return newTwoSampleKernel(d, src, false), nil
	case TEqualVar:
		return newTwoSampleKernel(d, src, true), nil
	case Wilcoxon:
		return newWilcoxonKernel(d, src), nil
	case F:
		return newFKernel(d, src.rowMajor()), nil
	case PairT:
		return newPairTKernel(d, src), nil
	case BlockF:
		return newBlockFKernel(d, src.rowMajor()), nil
	default:
		return nil, fmt.Errorf("stat: no kernel for test %v", d.Test)
	}
}

// ReorderKernel returns the kernel NewKernel(d, m, order) returns, given
// k, the kernel NewKernel(d, m, nil) returned: the two-sample kernels take
// their row moments, and the Wilcoxon kernel its integer quads, row totals
// and tails, from k, following the rows into order, instead of a second
// pass over m.
func ReorderKernel(k BatchKernel, d *Design, m matrix.Matrix, order []int) (BatchKernel, error) {
	if order == nil {
		return NewKernel(d, m, nil)
	}
	if err := checkSource(d, m, order); err != nil {
		return nil, err
	}
	src := rowSource{m: m, order: order}
	switch k := k.(type) {
	case *twoSampleKernel:
		return k.reorder(src), nil
	case *wilcoxonKernel:
		return k.reorder(src), nil
	}
	return NewKernel(d, m, order)
}

// checkSource validates what NewKernel is asked to read.
func checkSource(d *Design, m matrix.Matrix, order []int) error {
	if m.Cols != d.N {
		return fmt.Errorf("stat: matrix has %d columns, design has %d", m.Cols, d.N)
	}
	if len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("stat: matrix data has %d elements for %dx%d", len(m.Data), m.Rows, m.Cols)
	}
	for _, r := range order {
		if r < 0 || r >= m.Rows {
			return fmt.Errorf("stat: order names row %d of %d", r, m.Rows)
		}
	}
	return nil
}

// rowSource is what NewKernel reads: row j of the kernel is m's row
// order[j], or m's row j when order is nil.
type rowSource struct {
	m     matrix.Matrix
	order []int
}

func (s rowSource) rows() int {
	if s.order == nil {
		return s.m.Rows
	}
	return len(s.order)
}

func (s rowSource) row(j int) []float64 {
	if s.order == nil {
		return s.m.Row(j)
	}
	return s.m.Row(s.order[j])
}

// rowMajor returns the kernel's rows as one row-major matrix: m itself
// when order is nil, a copy in order otherwise.
func (s rowSource) rowMajor() matrix.Matrix {
	if s.order == nil {
		return s.m
	}
	c := matrix.New(len(s.order), s.m.Cols)
	ForBlocks(c.Rows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			copy(c.Row(j), s.row(j))
		}
	})
	return c
}

// smallerClass returns the two-sample class with fewer observed columns —
// the one worth accumulating directly each permutation.  Class sizes are
// invariant under relabelling, so the choice holds for every permutation.
func smallerClass(d *Design) int {
	if d.Counts[0] < d.Counts[1] {
		return 0
	}
	return 1
}

// Floating-point tie discipline
//
// Permutation p-values are exceedance counts, so labellings whose
// statistics are mathematically equal must evaluate to EXACTLY equal (or
// exactly negated) floats, or counts drift by ±1 against a correct
// implementation.  The ties that occur with probability one are the
// symmetry orbits of the observed labelling: the complement labelling
// (two-sample tests on balanced designs), uniform class relabellings (F),
// and the full pair flip (paired t).  Each kernel below states how it
// preserves its orbit exactly; this is why the two-sample t kernels on
// balanced designs accumulate the group CONTAINING COLUMN 0 (the
// complement labelling selects the same column set, so the same floats
// are produced and only the sign flips) rather than a fixed class id,
// and why the F and block-F kernels reduce their per-class aggregates in
// a canonical sorted order (uniform relabellings permute the aggregates
// bitwise-exactly, and a canonical order over every consumed per-bin
// quantity makes the reduction independent of that permutation).

// m2Tol bounds the relative rounding residual of the subtraction-form
// centered second moment m2 = q − s²/n: the computation carries an error
// of order n·ulp(q), so an m2 below q·m2Tol is numerically
// indistinguishable from an exactly zero variance.  Clamping it to zero
// reproduces the legacy Welford path's semantics — a group whose values
// are all equal yields m2 == 0 exactly and hence a NaN statistic (zero
// standard error).  Without the clamp, quantized data (counts, dosages)
// can make a mathematically zero group variance surface as a tiny
// positive residual and a huge finite statistic that would corrupt every
// row's successive maximum.
const m2Tol = 1e-12

// clampM2 zeroes numerically-zero centered second moments (q is the
// group's raw sum of squares, always >= 0 when accumulated directly).
func clampM2(m2, q float64) float64 {
	if m2 < q*m2Tol {
		return 0
	}
	return m2
}

// ---- two-sample t kernels (Welch, pooled) --------------------------------

// twoSampleKernel implements the Welch and pooled-variance t statistics.
// Precomputed per row: non-missing count n, total sum S, total sum of
// squares Q, and a constant-row flag.  Per permutation it accumulates
// (n, s, q) of ONE group only and derives the other by subtraction from
// the precomputed totals: n0 = n - n1, s0 = S - s1, q0 = Q - q1 — roughly
// halving the per-permutation element visits and replacing Welford's
// division-per-element update with an add and a multiply.
//
// On balanced designs the accumulated group is the one CONTAINING COLUMN
// 0, not a fixed class id: the complement labelling (the balanced-design
// tie partner) assigns column 0's group the identical column set, so both
// labellings accumulate the same floats and the statistic negates exactly
// — the tie discipline above.  On unbalanced designs the complement is
// not a valid relabelling (class sizes are preserved), so the kernel is
// free to accumulate the smaller class, which minimises element visits.
// Constant rows short-circuit to NaN because the subtraction form cannot
// certify an exactly zero variance.  The rows are x: the kernel's own row
// octets, or the caller's matrix read in place (rowGroups).
type twoSampleKernel struct {
	x      rowGroups
	pooled bool
	cls    int // fixed accumulated class; -1 anchors on column 0's class
	n      []int
	sum    []float64
	sumsq  []float64
	flat   []bool // row is constant over its non-missing cells
	isa    KernelISA
}

func newTwoSampleKernel(d *Design, src rowSource, pooled bool) *twoSampleKernel {
	k := &twoSampleKernel{pooled: pooled, cls: -1, isa: activeISA}
	if d.Counts[0] != d.Counts[1] {
		k.cls = smallerClass(d)
	}
	m := src.m
	k.n, k.sum, k.sumsq, k.flat = rowMoments(m)
	k.x = rowGroups{data: m.Data, rows: m.Rows, cols: m.Cols}
	if src.order != nil {
		return k.reorder(src)
	}
	return k
}

// reorder returns k, which reads src.m in place, over src's rows in
// src.order: the moments follow the rows into the new order, and the
// octets take one pass over m, a block of positions to a goroutine.
func (k *twoSampleKernel) reorder(src rowSource) *twoSampleKernel {
	o := *k
	rows := src.rows()
	o.n, o.sum, o.sumsq, o.flat = make([]int, rows), make([]float64, rows), make([]float64, rows), make([]bool, rows)
	o.x = allocOctets(rows, src.m.Cols)
	ForBlocks(rows, func(lo, hi int) {
		for j, r := range src.order[lo:hi] {
			j += lo
			o.n[j], o.sum[j], o.sumsq[j], o.flat[j] = k.n[r], k.sum[r], k.sumsq[r], k.flat[r]
		}
		o.x.fill(src, lo, hi)
	})
	return &o
}

// rowMoments computes every row's label-independent moments, a block of
// rows to a goroutine: non-missing count, sum, sum of squares, and whether
// the row is constant over its non-missing cells — no labelling can give
// such a row a nonzero variance, so its statistic is NaN for every
// permutation (exactly as the legacy per-row path computes).
func rowMoments(m matrix.Matrix) (n []int, sum, sumsq []float64, flat []bool) {
	n, sum, sumsq, flat = make([]int, m.Rows), make([]float64, m.Rows), make([]float64, m.Rows), make([]bool, m.Rows)
	ForBlocks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			n[i], sum[i], sumsq[i] = rowTotal(row)
			flat[i] = constantRow(row)
		}
	})
	return n, sum, sumsq, flat
}

// rowGroups holds a matrix in groups of 1<<lg rows: row i, column j sits
// at data[(i>>lg)·cols·(1<<lg) + (j<<lg) + i%(1<<lg)].  With lg = 0 it is
// row-major — the caller's matrix, read in place by the observed-
// statistics pass.  With lg = 3 it is the two-sample kernel's own layout,
// row octets: one column of an octet is one 64-byte line, what tsOct
// loads in one zmm, and either half of one is what tsQuad loads in one
// ymm.  Every two-sample path reads through it with selected-column lists
// scaled by 1<<lg (buildSelLists), so column j of row i is the list entry
// j<<lg on from the row's column 0 (row0).
type rowGroups struct {
	data       []float64
	rows, cols int
	lg         uint
}

// row0 returns the offset of row i's column 0 in data.
func (g *rowGroups) row0(i int) int {
	return (i>>g.lg)*g.cols<<g.lg + i&(1<<g.lg-1)
}

// newOctets lays the source's rows out as row octets (allocOctets, fill),
// a block of rows to a goroutine.
func newOctets(src rowSource) rowGroups {
	g := allocOctets(src.rows(), src.m.Cols)
	ForBlocks(g.rows, func(lo, hi int) { g.fill(src, lo, hi) })
	return g
}

// allocOctets returns an empty row-octet layout of rows × cols, the rows
// padded to a multiple of eight and the first octet started on a 64-byte
// boundary, so that every column of every octet is one cache line.
func allocOctets(rows, cols int) rowGroups {
	n := (rows + 7) &^ 7 * cols
	buf := make([]float64, n+7)
	return rowGroups{data: buf[-(uintptr(unsafe.Pointer(&buf[0]))>>3)&7:][:n], rows: rows, cols: cols, lg: 3}
}

// fill writes the source's rows [lo, hi) into the octets; lo is a multiple
// of eight, and so is hi unless it is the last row.  A whole octet's eight
// rows are read side by side, so each line is written in one go.
func (g rowGroups) fill(src rowSource, lo, hi int) {
	cols := g.cols
	if hi <= lo || cols == 0 {
		return
	}
	lines := unsafe.Slice((*[8]float64)(unsafe.Pointer(&g.data[0])), len(g.data)/8)
	full := hi &^ 7
	for o := lo; o < full; o += 8 {
		r0, r1, r2, r3 := src.row(o), src.row(o + 1)[:cols], src.row(o + 2)[:cols], src.row(o + 3)[:cols]
		r4, r5, r6, r7 := src.row(o + 4)[:cols], src.row(o + 5)[:cols], src.row(o + 6)[:cols], src.row(o + 7)[:cols]
		oct := lines[o*cols/8:][:cols]
		for j := range r0 {
			l := &oct[j]
			l[0], l[1], l[2], l[3] = r0[j], r1[j], r2[j], r3[j]
			l[4], l[5], l[6], l[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
	for i := max(full, lo); i < hi; i++ {
		for j, v := range src.row(i) {
			lines[i&^7*cols/8+j][i&7] = v
		}
	}
}

// constantRow reports whether the row's non-missing cells are all equal:
// no labelling can give such a row a nonzero variance, so its statistic is
// NaN for every permutation (exactly as the legacy per-row path computes).
func constantRow(row []float64) bool {
	first := math.NaN()
	for _, v := range row {
		if v != v {
			continue
		}
		if first != first {
			first = v
		} else if v != first {
			return false
		}
	}
	return true
}

// rowTotal computes a row's label-independent moments: non-missing count,
// sum and sum of squares.
func rowTotal(row []float64) (n int, sum, sumsq float64) {
	for _, v := range row {
		if v == v { // !NaN
			n++
			sum += v
			sumsq += float64(v * v)
		}
	}
	return n, sum, sumsq
}

func (k *twoSampleKernel) Rows() int { return k.x.rows }

// tsTail holds the group-size invariants of the two-sample statistic: every
// factor that depends only on (na, nb), precomputed once and reused for
// every permutation sharing those counts.  The statistic is evaluated on
// SCALED central moments m2s = q·f − s·s (= f·m2), which removes every
// division whose numerator varies per permutation:
//
//	Welch:  t = sign · (sa·fb − sb·fa) · rt / sqrt(m2sa·db + m2sb·da)
//	        da = fa²(fa−1), db = fb²(fb−1), rt = sqrt(da·db)/(fa·fb)
//	Pooled: t = sign · (sa·fb − sb·fa) · rt / sqrt((m2sa·fb + m2sb·fa)·(fa+fb))
//	        rt = sqrt(fa + fb − 2)
//
// One division and one square root per permutation; the invariant division
// and square root inside rt are paid once per (na, nb).  Zero-variance
// semantics are unchanged: both scaled moments clamp to zero exactly when
// the unscaled ones did (the clamp threshold scales by the same f), and the
// denominator is zero iff the legacy standard error was.
type tsTail struct {
	fa, fb float64
	da, db float64 // Welch: fa²(fa−1), fb²(fb−1); pooled: fa, fb
	scale  float64 // pooled: fa+fb; Welch: 1
	rt     float64
}

// newTSTail derives the invariants for group sizes (na, nb); ok is false
// when either group is too small for a variance estimate.
func newTSTail(pooled bool, na, nb int) (t tsTail, ok bool) {
	if na < 2 || nb < 2 {
		return t, false
	}
	fa, fb := float64(na), float64(nb)
	t.fa, t.fb = fa, fb
	if pooled {
		t.da, t.db = fa, fb
		t.scale = fa + fb
		t.rt = math.Sqrt(fa + fb - 2)
	} else {
		t.da = fa * fa * (fa - 1)
		t.db = fb * fb * (fb - 1)
		t.scale = 1
		t.rt = math.Sqrt(t.da*t.db) / (fa * fb)
	}
	return t, true
}

// stat forms the statistic from the accumulated group's (sa, qa); the
// complement group is derived by subtraction from the row totals (S, Q).
func (t *tsTail) stat(sign, S, Q, sa, qa float64) float64 {
	sb := S - sa
	qb := Q - qa
	m2a := clampM2(float64(qa*t.fa)-float64(sa*sa), qa*t.fa)
	m2b := clampM2(float64(qb*t.fb)-float64(sb*sb), qb*t.fb)
	den := (float64(m2a*t.db) + float64(m2b*t.da)) * t.scale
	if den == 0 {
		return math.NaN()
	}
	return sign * (float64(sa*t.fb) - float64(sb*t.fa)) * t.rt / math.Sqrt(den)
}

// twoSampleStat is the per-row tail of the two-sample t statistic, shared
// by StatsRows and the tests' scalar oracle.  Both funnel through
// tsTail.stat so their floating-point operation sequences cannot diverge;
// the NA-free fast paths hoist newTSTail out of the row loop (bitwise
// neutral: the invariants are a pure function of the group sizes).
func twoSampleStat(pooled bool, sign float64, n int, S, Q float64, na int, sa, qa float64) float64 {
	t, ok := newTSTail(pooled, na, n-na)
	if !ok {
		return math.NaN()
	}
	return t.stat(sign, S, Q, sa, qa)
}

// ---- Wilcoxon kernel -----------------------------------------------------

// wilcoxonKernel implements the standardized rank-sum statistic.  The row
// mean and the centered sum of squares are label-independent, so only the
// class-1 count and sum vary per permutation — accumulated via the smaller
// class and derived by subtraction when class 0 is smaller.  On mid-rank
// data (half-integers) the sums are exact, so the derived values are
// bit-identical to direct accumulation.
//
// Two per-row precomputations ride on that exactness.  (1) The integer
// view (intRank): mid-ranks scaled by 2 are small integers, so the
// per-permutation class sum accumulates in int64 — no NaN tests on
// NA-free rows, half the bytes per element — and converts back to the
// identical float.  (2) The hoisted tail (wilxTail): on NA-free rows the
// class counts never vary, so the whole tie-corrected variance — which
// depends only on the row's tie structure through the centered sum of
// squares — moves out of the permutation loop into per-row state, leaving
// one subtraction and one division per (row, permutation).
type wilcoxonKernel struct {
	m       matrix.Matrix // float rows; Data nil in an owned copy ir covers
	cls     int
	nsel    int // columns in the accumulated class (relabelling-invariant)
	n       []int
	total   []float64
	totalSq []float64
	ir      *intRank   // exact integer view; nil if no row is representable
	tails   []wilxTail // hoisted per-row tail, valid on NA-free rows
	isa     KernelISA  // delta lane: wilxQuad under avx2
}

func newWilcoxonKernel(d *Design, src rowSource) *wilcoxonKernel {
	k := &wilcoxonKernel{cls: smallerClass(d), isa: activeISA}
	k.nsel = d.Counts[k.cls]
	rows, cols := src.rows(), src.m.Cols
	k.ir = newIntRank(src)
	// The float rows are read only where a row fails the integer gate, so
	// a kernel that owns its rows and whose every row passes (mid-ranks
	// always do) keeps no float copy: m holds the shape alone.
	if src.order != nil && k.ir != nil && k.ir.all {
		k.m = matrix.Matrix{Rows: rows, Cols: cols}
	} else {
		k.m = src.rowMajor()
	}
	k.n, k.total, k.totalSq = make([]int, rows), make([]float64, rows), make([]float64, rows)
	k.tails = make([]wilxTail, rows)
	ForBlocks(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k.n[i], k.total[i], k.totalSq[i] = rowTotal(src.row(i))
			if k.n[i] == cols {
				k.tails[i] = newWilxTail(k.cls, k.nsel, k.n[i], k.total[i], k.totalSq[i])
			}
		}
	})
	return k
}

// reorder returns k, which reads src.m in place, over src's rows in
// src.order: the row totals, the tails and the integer view's cells
// follow the rows into the new order — each a copy of what k computed,
// so the kernel is NewKernel's over the same order bit for bit — and the
// float rows are copied only where the integer view does not cover them.
func (k *wilcoxonKernel) reorder(src rowSource) *wilcoxonKernel {
	o := *k
	rows, cols := src.rows(), k.m.Cols
	o.ir = k.ir.reorder(src.order)
	if o.ir != nil && o.ir.all {
		o.m = matrix.Matrix{Rows: rows, Cols: cols}
	} else {
		o.m = src.rowMajor()
	}
	o.n, o.total, o.totalSq = make([]int, rows), make([]float64, rows), make([]float64, rows)
	o.tails = make([]wilxTail, rows)
	ForBlocks(rows, func(lo, hi int) {
		for j, r := range src.order[lo:hi] {
			j += lo
			o.n[j], o.total[j], o.totalSq[j], o.tails[j] = k.n[r], k.total[r], k.totalSq[r], k.tails[r]
		}
	})
	return &o
}

// wilxTail holds the permutation-invariant part of the Wilcoxon z-score
// for one row with fixed class counts (every NA-free row): the row mean's
// class-1 expectation mu1 = n1·ybar and the tie-corrected standard
// deviation sd = sqrt(n0·n1/(nn·(nn−1))·Σ(y−ybar)²), both pure functions
// of the row totals and the (relabelling-invariant) class sizes.  The
// per-permutation statistic is then (s1 − mu1)/sd — the identical
// IEEE-754 operations wilcoxonStat performs, with the invariant factors
// computed once at kernel construction instead of once per permutation.
type wilxTail struct {
	ok    bool
	neg   bool // accumulated class is 0: s1 = total − sc
	total float64
	mu1   float64
	sd    float64
}

// newWilxTail derives the invariants for a row with nc accumulated-class
// observations out of nn; ok is false when the statistic is never
// computable (small counts or zero tie-corrected variance).
func newWilxTail(cls, nc, nn int, total, totalSq float64) (t wilxTail) {
	var n0, n1 int
	if cls == 1 {
		n1 = nc
		n0 = nn - nc
	} else {
		n0 = nc
		n1 = nn - nc
		t.neg = true
	}
	t.total = total
	if n0 < 2 || n1 < 2 || nn < 3 {
		return t
	}
	ybar := total / float64(nn)
	ssq := totalSq - float64(float64(nn)*ybar*ybar)
	variance := float64(n0) * float64(n1) / (float64(nn) * float64(nn-1)) * ssq
	if variance <= 0 {
		return t
	}
	t.ok = true
	t.mu1 = float64(n1) * ybar
	t.sd = math.Sqrt(variance)
	return t
}

// stat forms the statistic from the accumulated class sum sc.
func (t *wilxTail) stat(sc float64) float64 {
	if !t.ok {
		return math.NaN()
	}
	s1 := float64(sc) // rounded: the caller may pass a product
	if t.neg {
		s1 = t.total - s1
	}
	return (s1 - t.mu1) / t.sd
}

func (k *wilcoxonKernel) Rows() int { return k.m.Rows }

// wilcoxonStat is the per-row Wilcoxon tail, shared by StatsRows and the
// tests' scalar oracle: cls names the accumulated class, (nc, sc) its
// count and sum, and (nn, total, totalSq) the precomputed row totals.
func wilcoxonStat(cls, nc int, sc float64, nn int, total, totalSq float64) float64 {
	var n0, n1 int
	var s1 float64
	if cls == 1 {
		n1, s1 = nc, sc
		n0 = nn - nc
	} else {
		n0 = nc
		n1 = nn - nc
		s1 = total - sc
	}
	if n0 < 2 || n1 < 2 || nn < 3 {
		return math.NaN()
	}
	ybar := total / float64(nn)
	ssq := totalSq - float64(float64(nn)*ybar*ybar)
	variance := float64(n0) * float64(n1) / (float64(nn) * float64(nn-1)) * ssq
	if variance <= 0 {
		return math.NaN()
	}
	return (s1 - float64(float64(n1)*ybar)) / math.Sqrt(variance)
}

// ---- one-way F kernel ----------------------------------------------------

// fKernel implements the one-way ANOVA F with per-class count/sum/sum-of-
// squares accumulation — one add and one multiply per element instead of a
// Welford update with a division.  Per the tie discipline, the per-class
// aggregates are reduced in canonical (sorted) order so a uniform class
// relabelling — which permutes the aggregates bitwise-exactly — cannot
// perturb the result by reassociating the reductions.
type fKernel struct {
	m    matrix.Matrix
	k    int
	flat []bool
}

func newFKernel(d *Design, m matrix.Matrix) *fKernel {
	flat := make([]bool, m.Rows)
	ForBlocks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			flat[i] = constantRow(m.Row(i))
		}
	})
	return &fKernel{m: m, k: d.K, flat: flat}
}

func (k *fKernel) Rows() int { return k.m.Rows }

// canonicalOrder fills ord with 0..len(ord)-1 sorted by (key, tie, cnt)
// via insertion sort (class counts are tiny), index as the last resort.
// Every per-bin quantity a reduction consumes must appear in the sort key:
// bins that compare equal on all keys hold fully identical values, so
// only then is their relative order irrelevant to the reduction.
func canonicalOrder(ord []int, key, tie []float64, cnt []int) {
	less := func(x, y int) bool {
		switch {
		case key[x] != key[y]:
			return key[x] < key[y]
		case tie != nil && tie[x] != tie[y]:
			return tie[x] < tie[y]
		case cnt != nil && cnt[x] != cnt[y]:
			return cnt[x] < cnt[y]
		default:
			return x < y
		}
	}
	for g := range ord {
		ord[g] = g
	}
	for a := 1; a < len(ord); a++ {
		for b := a; b > 0 && less(ord[b], ord[b-1]); b-- {
			ord[b-1], ord[b] = ord[b], ord[b-1]
		}
	}
}

// fStat is the per-row F tail, shared by StatsRows and the tests' scalar
// oracle: the canonical-order reduction over the accumulated per-class
// (count, sum, sum of squares) bins.  cn is part of the sort key: two
// classes can share (sum, sum of squares) with different sizes, and their
// m2 and ssBetween contributions differ, so the order must still be
// canonical.
func fStat(cn []int, cs, cq []float64, ord []int, kk int) float64 {
	total := 0
	for g := 0; g < kk; g++ {
		if cn[g] < 2 {
			return math.NaN()
		}
		total += cn[g]
	}
	canonicalOrder(ord, cs, cq, cn)
	var grand float64
	for _, g := range ord {
		grand += cs[g]
	}
	grand /= float64(total)
	var ssBetween, ssWithin float64
	for _, g := range ord {
		fg := float64(cn[g])
		mg := cs[g] / fg
		ssWithin += clampM2(cq[g]-float64(cs[g]*mg), cq[g])
		dg := mg - grand
		ssBetween += float64(fg * dg * dg)
	}
	dfWithin := total - kk
	if dfWithin <= 0 || ssWithin <= 0 {
		return math.NaN()
	}
	return (ssBetween / float64(kk-1)) / (ssWithin / float64(dfWithin))
}

// ---- paired t kernel -----------------------------------------------------

// pairTKernel implements the paired t.  Pair differences and their sum of
// squares are sign-invariant, hence label-independent: both are
// precomputed, and a permutation only flips signs in the difference sum —
// one multiply-add per pair.
type pairTKernel struct {
	pairs int
	diffs matrix.Matrix // rows × pairs; NaN marks an incomplete pair
	cnt   []int         // complete pairs per row
	sumsq []float64     // Σ d² per row
}

func newPairTKernel(d *Design, src rowSource) *pairTKernel {
	rows := src.rows()
	k := &pairTKernel{
		pairs: d.Pairs,
		diffs: matrix.New(rows, d.Pairs),
		cnt:   make([]int, rows),
		sumsq: make([]float64, rows),
	}
	ForBlocks(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := src.row(i)
			dst := k.diffs.Row(i)
			for j := 0; j < d.Pairs; j++ {
				a, b := row[2*j], row[2*j+1]
				if a != a || b != b {
					dst[j] = math.NaN()
					continue
				}
				dv := b - a
				dst[j] = dv
				k.cnt[i]++
				k.sumsq[i] += float64(dv * dv)
			}
		}
	})
	return k
}

func (k *pairTKernel) Rows() int { return k.diffs.Rows }

// pairTStat is the per-row paired-t tail, shared by StatsRows and the
// tests' scalar oracle: sum is the signed difference sum, m the
// complete-pair count and sumsq the precomputed (sign-invariant) sum of
// squared differences.  On
// the scaled central moment m2s = sumsq·fm − sum² (= fm·m2) the statistic
// collapses to
//
//	t = mean / (sd/√fm) = sum · √(fm−1) / √m2s
//
// — one division and one data-dependent square root per permutation, with
// the zero-variance NaN exactly when the legacy sd was zero (m2s clamps to
// zero whenever fm·m2 is numerically zero; the threshold scales by fm).
func pairTStat(sum float64, m int, sumsq float64) float64 {
	fm := float64(m)
	m2s := clampM2(float64(sumsq*fm)-float64(sum*sum), sumsq*fm)
	if m < 2 || m2s == 0 {
		return math.NaN()
	}
	return sum * math.Sqrt(fm-1) / math.Sqrt(m2s)
}

// ---- block F kernel ------------------------------------------------------

// blockFKernel implements the randomized-complete-block F.  Within-block
// permutations leave the block sums, the grand mean, the total and block
// sums of squares — everything except the treatment sums — unchanged, so
// all of them are precomputed per row and each permutation accumulates
// only the k treatment sums over the complete blocks.
type blockFKernel struct {
	m         matrix.Matrix
	k, blocks int
	complete  []bool // rows × blocks, flattened
	blockUsed []int
	grandMean []float64
	ssTotal   []float64
	ssBlock   []float64
}

func newBlockFKernel(d *Design, m matrix.Matrix) *blockFKernel {
	k := &blockFKernel{
		m: m, k: d.BlockSize, blocks: d.Blocks,
		complete:  make([]bool, m.Rows*d.Blocks),
		blockUsed: make([]int, m.Rows),
		grandMean: make([]float64, m.Rows),
		ssTotal:   make([]float64, m.Rows),
		ssBlock:   make([]float64, m.Rows),
	}
	kk, blocks := d.BlockSize, d.Blocks
	ForBlocks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			comp := k.complete[i*blocks : (i+1)*blocks]
			used := 0
			for b := 0; b < blocks; b++ {
				ok := true
				for j := 0; j < kk; j++ {
					if v := row[b*kk+j]; v != v {
						ok = false
						break
					}
				}
				comp[b] = ok
				if ok {
					used++
				}
			}
			k.blockUsed[i] = used
			if used < 2 {
				continue // row permanently uncomputable
			}
			var grand float64
			for b := 0; b < blocks; b++ {
				if !comp[b] {
					continue
				}
				for j := 0; j < kk; j++ {
					grand += row[b*kk+j]
				}
			}
			gm := grand / float64(used*kk)
			k.grandMean[i] = gm
			var ssTotal, ssBlock float64
			for b := 0; b < blocks; b++ {
				if !comp[b] {
					continue
				}
				var bs float64
				for j := 0; j < kk; j++ {
					v := row[b*kk+j]
					dv := v - gm
					ssTotal += float64(dv * dv)
					bs += v
				}
				db := bs/float64(kk) - gm
				ssBlock += float64(float64(kk) * db * db)
			}
			k.ssTotal[i], k.ssBlock[i] = ssTotal, ssBlock
		}
	})
	return k
}

func (k *blockFKernel) Rows() int { return k.m.Rows }

// blockFStat is the per-row block-F tail, shared by StatsRows and the
// tests' scalar oracle.  Canonical order: a treatment relabelling applied
// uniformly to every block permutes the treatment sums bitwise-exactly;
// sorting keeps the ssTreat reduction independent of that permutation.
func blockFStat(treatSum []float64, ord []int, used, kk int, gm, ssTotal, ssBlock float64) float64 {
	canonicalOrder(ord, treatSum, nil, nil)
	var ssTreat float64
	for _, t := range ord {
		dt := treatSum[t]/float64(used) - gm
		ssTreat += float64(float64(used) * dt * dt)
	}
	ssErr := ssTotal - ssTreat - ssBlock
	dfErr := (kk - 1) * (used - 1)
	if dfErr <= 0 || ssErr <= 0 {
		return math.NaN()
	}
	return (ssTreat / float64(kk-1)) / (ssErr / float64(dfErr))
}
