// Package maxt implements the Westfall–Young step-down maxT multiple
// testing procedure that mt.maxT computes and pmaxT parallelises (Ge &
// Dudoit 2003; Westfall & Young 1993).
//
// The procedure: compute the observed test statistic for every row (gene),
// transform it according to the rejection-region side, and order rows by
// decreasing transformed statistic.  For each permutation of the column
// labels, recompute all statistics and form the successive maxima from the
// bottom of the ordered list upward; the adjusted p-value of a row is the
// fraction of permutations whose successive maximum at that row's position
// reaches the observed value.  A final pass enforces monotonicity down the
// ordered list.  Raw (unadjusted) p-values count per-row exceedances only.
//
// The package deliberately separates preparation (Prep), per-chunk counting
// (Process into Counts) and the final reduction (Finalize): this is exactly
// the split pmaxT needs, where each MPI rank processes a chunk of the
// permutation sequence and the master merges the partial counts — Steps 4
// and 5 of Section 3.2 of the paper.
package maxt

import (
	"fmt"
	"math"
	"sort"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// Side selects the rejection region, mirroring mt.maxT's side parameter.
type Side int

const (
	// Abs tests the absolute difference (side="abs", the default).
	Abs Side = iota
	// Upper tests the maximum (side="upper").
	Upper
	// Lower tests the minimum (side="lower").
	Lower
)

// String returns the mt.maxT name of the side.
func (s Side) String() string {
	switch s {
	case Abs:
		return "abs"
	case Upper:
		return "upper"
	case Lower:
		return "lower"
	}
	return fmt.Sprintf("Side(%d)", int(s))
}

// ParseSide converts an mt.maxT side name into a Side.
func ParseSide(s string) (Side, error) {
	switch s {
	case "abs":
		return Abs, nil
	case "upper":
		return Upper, nil
	case "lower":
		return Lower, nil
	}
	return 0, fmt.Errorf("maxt: unknown side %q (want abs, upper or lower)", s)
}

// transform applies the side transform: statistics are compared on the
// transformed scale, where larger always means more extreme.
func (s Side) transform(v float64) float64 {
	switch s {
	case Abs:
		return math.Abs(v)
	case Lower:
		return -v
	default:
		return v
	}
}

// Prep bundles the immutable inputs of a maxT run: the (possibly
// rank-transformed) flat data matrix, the design, the batched statistics
// kernel, the observed statistics and the induced row order.  A Prep is
// safe for concurrent use; per-goroutine scratch lives in Scratch values.
type Prep struct {
	Design *stat.Design
	Side   Side
	M      matrix.Matrix                          // rows × columns, transformed flat copy
	Kernel stat.Kernel                            // batched engine; nil on reference preps
	StatFn func(row []float64, lab []int) float64 // legacy per-row evaluator

	Stat  []float64 // untransformed observed statistic per row
	Obs   []float64 // side-transformed observed statistic per row
	Order []int     // row indices by decreasing Obs; NaN rows at the end
	Valid int       // number of rows with a computable observed statistic

	// The counting pass's view of Order and Obs, laid out by step-down
	// position so it walks both sequentially: ord[j] is the matrix row at
	// position j and pobs[j] its transformed observed statistic, for the
	// Valid computable rows only.
	ord  []int32
	pobs []float64

	// ref selects the retained pre-flat evaluation path: Process calls
	// StatFn row by row instead of the batched kernel.  Kept so the flat
	// refactor stays differentially testable against its predecessor.
	ref bool
}

// NewPrep adapts the legacy row-per-slice surface: it validates shape,
// flattens x into contiguous storage and defers to NewPrepMatrix.  The
// input matrix is not modified.
func NewPrep(x [][]float64, d *stat.Design, side Side, nonpara bool) (*Prep, error) {
	m, err := rowsToMatrix(x, d)
	if err != nil {
		return nil, err
	}
	return newPrep(m, d, side, nonpara, false)
}

// NewPrepMatrix builds the production prep over a flat matrix: it copies m,
// applies the rank transform when the test requires it (Wilcoxon) or when
// nonpara is set, builds the batched kernel with its precomputed per-row
// moments, computes observed statistics under the design's labelling, and
// derives the step-down order.  The input matrix is not modified.
func NewPrepMatrix(m matrix.Matrix, d *stat.Design, side Side, nonpara bool) (*Prep, error) {
	return newPrep(m.Clone(), d, side, nonpara, false)
}

// NewPrepReference builds a prep whose Process evaluates permutations
// through the legacy per-row statistic functions (Design.Func).  It exists
// to guard the flat-matrix kernels differentially: results must agree with
// NewPrepMatrix preps on the same inputs.
func NewPrepReference(m matrix.Matrix, d *stat.Design, side Side, nonpara bool) (*Prep, error) {
	return newPrep(m.Clone(), d, side, nonpara, true)
}

// rowsToMatrix validates the legacy [][]float64 shape against the design
// and flattens it, preserving the historical error messages.
func rowsToMatrix(x [][]float64, d *stat.Design) (matrix.Matrix, error) {
	if len(x) == 0 {
		return matrix.Matrix{}, fmt.Errorf("maxt: empty data matrix")
	}
	for i, row := range x {
		if len(row) != d.N {
			return matrix.Matrix{}, fmt.Errorf("maxt: row %d has %d columns, design has %d", i, len(row), d.N)
		}
	}
	m := matrix.New(len(x), d.N)
	for i, row := range x {
		copy(m.Row(i), row)
	}
	return m, nil
}

// newPrep consumes m (already a private copy owned by the prep).
func newPrep(m matrix.Matrix, d *stat.Design, side Side, nonpara bool, ref bool) (*Prep, error) {
	if m.IsEmpty() {
		return nil, fmt.Errorf("maxt: empty data matrix")
	}
	if m.Cols != d.N {
		return nil, fmt.Errorf("maxt: matrix has %d columns, design has %d", m.Cols, d.N)
	}
	if len(m.Data) != m.Rows*m.Cols {
		return nil, fmt.Errorf("maxt: matrix data has %d elements for %dx%d", len(m.Data), m.Rows, m.Cols)
	}
	if m.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("maxt: matrix has %d rows, limit is %d", m.Rows, math.MaxInt32)
	}
	p := &Prep{
		Design: d,
		Side:   side,
		M:      m,
		StatFn: d.Func(),
		ref:    ref,
	}
	if d.NeedsRanks() || nonpara {
		var scratch []int
		if m.Cols > 0 {
			scratch = make([]int, m.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			stat.Ranks(m.Row(i), scratch)
		}
	}
	n := m.Rows
	p.Stat = make([]float64, n)
	p.Obs = make([]float64, n)
	if ref {
		for i := 0; i < n; i++ {
			p.Stat[i] = p.StatFn(m.Row(i), d.Labels)
		}
	} else {
		k, err := stat.NewKernel(d, m)
		if err != nil {
			return nil, err
		}
		p.Kernel = k
		k.Stats(d.Labels, p.Stat, nil)
	}
	p.rankRows()
	return p, nil
}

// rankRows derives everything that follows from the observed statistics:
// their side transform Obs, the step-down Order, Valid and the counting
// pass's position layout.
func (p *Prep) rankRows() {
	for i, t := range p.Stat {
		if math.IsNaN(t) {
			p.Obs[i] = math.NaN()
		} else {
			p.Obs[i] = p.Side.transform(t)
		}
	}
	p.Order = make([]int, len(p.Stat))
	for i := range p.Order {
		p.Order[i] = i
	}
	// Decreasing transformed statistic; NaN rows sink to the end; ties
	// break on row index so the order — and therefore the parallel
	// reduction — is deterministic.
	sort.SliceStable(p.Order, func(a, b int) bool {
		ra, rb := p.Order[a], p.Order[b]
		va, vb := p.Obs[ra], p.Obs[rb]
		na, nb := math.IsNaN(va), math.IsNaN(vb)
		switch {
		case na && nb:
			return ra < rb
		case na:
			return false
		case nb:
			return true
		case va != vb:
			return va > vb
		default:
			return ra < rb
		}
	})
	p.Valid = 0
	for _, r := range p.Order {
		if math.IsNaN(p.Obs[r]) {
			break
		}
		p.Valid++
	}
	p.layoutPositions()
}

// layoutPositions derives ord and pobs from Order, Obs and Valid.
func (p *Prep) layoutPositions() {
	p.ord = make([]int32, p.Valid)
	p.pobs = make([]float64, p.Valid)
	for j, r := range p.Order[:p.Valid] {
		p.ord[j] = int32(r)
		p.pobs[j] = p.Obs[r]
	}
}

// Rows returns the number of rows (genes) in the prepared matrix.
func (p *Prep) Rows() int { return p.M.Rows }

// Subset builds a prep over a subset of p's rows, given as matrix row
// indices in STEP-DOWN ORDER (a contiguous run of p.Order positions whose
// observed statistics are computable).  It exists for the sequential
// engine: once every row above a position has frozen, the remaining rows'
// successive maxima depend only on themselves, so the kernel may compute
// this smaller prep instead — ProcessBatched over the subset accumulates
// bit-for-bit the counts the full prep would have produced for the same
// rows, because the rows are byte copies of p's already-transformed
// matrix, the observed statistics are copied rather than recomputed, and
// the induced order is the identity by construction.
func (p *Prep) Subset(rows []int) (*Prep, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("maxt: empty row subset")
	}
	m := matrix.New(len(rows), p.M.Cols)
	sub := &Prep{
		Design: p.Design,
		Side:   p.Side,
		M:      m,
		StatFn: p.StatFn,
		Stat:   make([]float64, len(rows)),
		Obs:    make([]float64, len(rows)),
		Order:  make([]int, len(rows)),
		Valid:  len(rows),
		ref:    p.ref,
	}
	for i, r := range rows {
		if r < 0 || r >= p.M.Rows {
			return nil, fmt.Errorf("maxt: subset row %d outside matrix of %d rows", r, p.M.Rows)
		}
		if math.IsNaN(p.Obs[r]) {
			return nil, fmt.Errorf("maxt: subset row %d has no computable observed statistic", r)
		}
		copy(m.Row(i), p.M.Row(r))
		sub.Stat[i] = p.Stat[r]
		sub.Obs[i] = p.Obs[r]
		sub.Order[i] = i
	}
	if !p.ref {
		// The matrix rows are already rank-transformed where the test
		// demands it, exactly as the full prep's were when its kernel was
		// built, so the kernel sees identical per-row data and produces
		// identical statistics.
		k, err := stat.NewKernel(p.Design, m)
		if err != nil {
			return nil, err
		}
		sub.Kernel = k
	}
	sub.layoutPositions()
	return sub, nil
}

// Counts holds partial exceedance counts.  Raw[i] counts permutations whose
// statistic for row i reaches the observed one; Adj[i] counts permutations
// whose successive maximum at row i's ordered position reaches the observed
// statistic.  Counts from disjoint permutation chunks merge by addition —
// the global sum the master performs in Step 5.
type Counts struct {
	Raw []int64
	Adj []int64
	B   int64 // permutations accumulated
}

// NewCounts returns zeroed counts for n rows.
func NewCounts(n int) *Counts {
	return &Counts{Raw: make([]int64, n), Adj: make([]int64, n)}
}

// Merge adds o into c.
func (c *Counts) Merge(o *Counts) {
	if len(o.Raw) != len(c.Raw) {
		panic("maxt: merging counts of different sizes")
	}
	for i := range c.Raw {
		c.Raw[i] += o.Raw[i]
		c.Adj[i] += o.Adj[i]
	}
	c.B += o.B
}

// Reset zeroes c for n rows, reusing its buffers when they are large
// enough — the counterpart of ScratchFrom for per-worker count reuse.
func (c *Counts) Reset(n int) {
	if cap(c.Raw) < n {
		c.Raw = make([]int64, n)
		c.Adj = make([]int64, n)
	} else {
		c.Raw = c.Raw[:n]
		c.Adj = c.Adj[:n]
		clear(c.Raw)
		clear(c.Adj)
	}
	c.B = 0
}

// Scratch holds per-goroutine working storage for Process and
// ProcessBatched, so concurrent chunks never share mutable state.  The
// batch fields are sized lazily by ProcessBatched and retain their
// capacity across preps (see ScratchFrom), which is what makes the jobs
// worker path allocation-free in steady state.
type Scratch struct {
	lab []int
	z   []float64
	ks  *stat.KernelScratch

	// Exceedance counts of the call in progress, indexed by step-down
	// position; scatter adds them into the caller's Counts by row.
	raw, adj []int64

	labs  []int              // batch × N flat labellings
	zb    []float64          // batch × rows statistics (backing store)
	moves []stat.Exchange    // batch-1 delta moves (revolving-door path)
	bks   *stat.BatchScratch // grow-on-demand batch kernel scratch
}

// NewScratch sizes scratch space for the given prep.
func (p *Prep) NewScratch() *Scratch {
	return p.ScratchFrom(nil)
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices.  Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ScratchFrom sizes scratch space for the prep, reusing prev's buffers
// (possibly sized for a different prep) when their capacity suffices.  A
// long-lived worker passes its previous scratch between jobs so that
// steady-state processing allocates nothing.
func (p *Prep) ScratchFrom(prev *Scratch) *Scratch {
	s := prev
	if s == nil {
		s = &Scratch{}
	}
	s.lab = resize(s.lab, p.Design.N)
	s.z = resize(s.z, p.M.Rows)
	s.raw = resize(s.raw, p.Valid)
	s.adj = resize(s.adj, p.Valid)
	// The scalar kernel scratch is sized lazily by Process: the batched
	// path (the default) never needs it, so eagerly rebuilding it here
	// would charge every job an allocation it never uses.
	s.ks = nil
	if s.bks == nil {
		s.bks = &stat.BatchScratch{}
	}
	return s
}

// ensureBatch sizes the batch buffers for batches of up to batch
// labellings, reusing capacity.
func (p *Prep) ensureBatch(s *Scratch, batch int) {
	s.labs = resize(s.labs, batch*p.Design.N)
	s.zb = resize(s.zb, batch*p.M.Rows)
	if cap(s.moves) < batch-1 {
		s.moves = make([]stat.Exchange, batch-1)
	}
	if s.bks == nil {
		s.bks = &stat.BatchScratch{}
	}
}

// Process accumulates exceedance counts for permutation indices [lo, hi) of
// gen into c.  It is the computational kernel of both mt.maxT and pmaxT:
// the serial run processes [0, B); rank r of a parallel run processes its
// chunk, with the master's chunk containing index 0 (the observed
// labelling, Figure 2).  Statistics for all rows are evaluated by one
// batched kernel call per permutation (or row by row through StatFn on
// reference preps).  scratch may be nil, in which case temporary storage
// is allocated.
func Process(p *Prep, gen perm.Generator, lo, hi int64, c *Counts, scratch *Scratch) {
	if lo >= hi {
		return
	}
	if scratch == nil {
		scratch = p.NewScratch()
	}
	if scratch.ks == nil && p.Kernel != nil {
		scratch.ks = p.Kernel.NewScratch()
	}
	lab, z := scratch.lab, scratch.z
	clear(scratch.raw)
	clear(scratch.adj)
	for idx := lo; idx < hi; idx++ {
		gen.Label(idx, lab)
		if p.ref {
			for i := 0; i < p.M.Rows; i++ {
				z[i] = p.StatFn(p.M.Row(i), lab)
			}
		} else {
			p.Kernel.Stats(lab, z, scratch.ks)
		}
		p.count(z, scratch.raw, scratch.adj)
	}
	p.scatter(scratch, c, hi-lo)
}

// tally folds one side-transformed permuted statistic t into the running
// successive maximum u and returns the new maximum with the raw and
// adjusted exceedance increments against the observed statistic o.  A NaN
// statistic becomes -Inf — it never raises the maximum and reaches only an
// observed -Inf — which a bare t >= o (false for NaN) would not do.  The
// two increments compile to flag materialisations, not branches: on null
// rows their outcome is a coin flip no predictor learns.
func tally(t, u, o float64) (float64, int64, int64) {
	if t != t {
		t = math.Inf(-1)
	}
	if t > u {
		u = t
	}
	var r, a int64
	if t >= o {
		r = 1
	}
	if u >= o {
		a = 1
	}
	return u, r, a
}

// count adds one permutation's exceedances to the position-indexed
// accumulators raw and adj, reading the untransformed statistics z (by
// matrix row) in one walk from the least significant valid position
// upward.  It is the single counting path shared by the scalar and batched
// loops, so the two cannot diverge.  The side transform is hoisted out of
// the loop: one loop per side.
func (p *Prep) count(z []float64, raw, adj []int64) {
	ord := p.ord
	obs, raw, adj := p.pobs[:len(ord)], raw[:len(ord)], adj[:len(ord)]
	u := math.Inf(-1)
	var r, a int64
	switch p.Side {
	case Abs:
		for j := len(ord) - 1; j >= 0; j-- {
			u, r, a = tally(math.Abs(z[ord[j]]), u, obs[j])
			raw[j] += r
			adj[j] += a
		}
	case Lower:
		for j := len(ord) - 1; j >= 0; j-- {
			u, r, a = tally(-z[ord[j]], u, obs[j])
			raw[j] += r
			adj[j] += a
		}
	default:
		for j := len(ord) - 1; j >= 0; j-- {
			u, r, a = tally(z[ord[j]], u, obs[j])
			raw[j] += r
			adj[j] += a
		}
	}
}

// scatter adds the position accumulators of n counted permutations into c
// by row.  Integer adds commute, so deferring them from once per
// permutation to once per call leaves every count unchanged.
func (p *Prep) scatter(s *Scratch, c *Counts, n int64) {
	for j, r := range p.ord {
		c.Raw[r] += s.raw[j]
		c.Adj[r] += s.adj[j]
	}
	c.B += n
}

// ProcessBatched is Process with the permutation loop inverted: the chunk
// [lo, hi) is evaluated in batches of up to batch labellings through the
// kernel's StatsBatch, so each matrix row is read once per batch instead
// of once per permutation.  The counting pass per permutation is shared
// with Process (count) and StatsBatch is bitwise identical to Stats, so
// the accumulated counts are exactly those of Process for every batch
// size; batch <= 1 (or a reference prep, whose kernel is nil) falls back
// to the scalar loop.
//
// When the generator emits single-exchange deltas (perm.RevolvingDoor)
// AND the kernel can evaluate them exactly (stat.DeltaKernel on integer
// rank data), each batch is driven through StatsDelta instead: one
// subtract and one add per (row, permutation) in place of the O(n1)
// column scatter.  StatsDelta is bitwise identical to StatsBatch on the
// materialised labellings, so the fast path changes wall time only —
// counts, p-values, cache keys and checkpoints are unaffected.
func ProcessBatched(p *Prep, gen perm.Generator, lo, hi int64, c *Counts, scratch *Scratch, batch int) {
	bk, ok := p.Kernel.(stat.BatchKernel)
	if batch <= 1 || !ok || lo >= hi {
		Process(p, gen, lo, hi, c, scratch)
		return
	}
	if scratch == nil {
		scratch = p.NewScratch()
	}
	if span := hi - lo; int64(batch) > span {
		batch = int(span)
	}
	p.ensureBatch(scratch, batch)
	dk, okDK := p.Kernel.(stat.DeltaKernel)
	dg, okDG := gen.(perm.DeltaGenerator)
	useDelta := okDK && okDG && dk.DeltaOK()
	n, rows := p.Design.N, p.M.Rows
	clear(scratch.raw)
	clear(scratch.adj)
	for base := lo; base < hi; base += int64(batch) {
		nb := batch
		if rem := hi - base; int64(nb) > rem {
			nb = int(rem)
		}
		out := matrix.Matrix{Data: scratch.zb[:nb*rows], Rows: nb, Cols: rows}
		if useDelta {
			lab0 := scratch.lab
			moves := scratch.moves[:nb-1]
			dg.LabelsDelta(base, int64(nb), lab0, moves)
			dk.StatsDelta(lab0, moves, out, scratch.bks)
		} else {
			labs := scratch.labs[:nb*n]
			gen.Labels(base, int64(nb), labs)
			bk.StatsBatch(labs, out, scratch.bks)
		}
		for bp := 0; bp < nb; bp++ {
			p.count(out.Row(bp), scratch.raw, scratch.adj)
		}
	}
	p.scatter(scratch, c, hi-lo)
}

// Result carries the outputs of a maxT run, in the original row order.
// Stat and Order alias the prep's slices — they are the same for every run
// over a prep — so a Result is read-only, like the Prep it came from.
type Result struct {
	Stat  []float64 // observed (untransformed) statistics
	RawP  []float64 // unadjusted permutation p-values
	AdjP  []float64 // Westfall–Young step-down maxT adjusted p-values
	Order []int     // rows by decreasing significance
	B     int64     // permutations actually used (including the observed)
}

// Finalize converts merged counts into p-values.  Rows whose observed
// statistic was not computable receive NaN p-values.  Adjusted p-values are
// made monotone non-decreasing down the significance order, the step-down
// enforcement of Westfall & Young.
func Finalize(p *Prep, c *Counts) *Result {
	n := p.M.Rows
	res := &Result{
		Stat:  p.Stat,
		RawP:  make([]float64, n),
		AdjP:  make([]float64, n),
		Order: p.Order,
		B:     c.B,
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(p.Obs[i]) {
			res.RawP[i] = math.NaN()
			res.AdjP[i] = math.NaN()
		} else {
			res.RawP[i] = float64(c.Raw[i]) / float64(c.B)
		}
	}
	prev := 0.0
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		v := float64(c.Adj[r]) / float64(c.B)
		if v < prev {
			v = prev
		}
		res.AdjP[r] = v
		prev = v
	}
	return res
}

// FinalizeEffective is Finalize for sequentially stopped runs: row r's
// counts cover its own prefix [0, bEff[r]) of the permutation sequence
// rather than a shared B, so each p-value divides by its row's effective
// count.  Rows with bEff[r] == 0 (no computable statistic) receive NaN.
// The step-down monotonicity enforcement is unchanged: adjusted p-values
// are made non-decreasing down the significance order.
func FinalizeEffective(p *Prep, c *Counts, bEff []int64) *Result {
	n := p.M.Rows
	res := &Result{
		Stat:  p.Stat,
		RawP:  make([]float64, n),
		AdjP:  make([]float64, n),
		Order: p.Order,
		B:     c.B,
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(p.Obs[i]) || bEff[i] <= 0 {
			res.RawP[i] = math.NaN()
			res.AdjP[i] = math.NaN()
		} else {
			res.RawP[i] = float64(c.Raw[i]) / float64(bEff[i])
		}
	}
	prev := 0.0
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		if bEff[r] <= 0 {
			continue
		}
		v := float64(c.Adj[r]) / float64(bEff[r])
		if v < prev {
			v = prev
		}
		res.AdjP[r] = v
		prev = v
	}
	return res
}

// Run executes a complete serial maxT computation over all permutations of
// gen: the reference mt.maxT behaviour.
func Run(p *Prep, gen perm.Generator) *Result {
	c := NewCounts(p.M.Rows)
	Process(p, gen, 0, gen.Total(), c, nil)
	return Finalize(p, c)
}
