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
// (ProcessBatched into Counts) and the final reduction (Finalize): this is
// exactly the split pmaxT needs, where each MPI rank processes a chunk of
// the permutation sequence and the master merges the partial counts —
// Steps 4 and 5 of Section 3.2 of the paper.
package maxt

import (
	"fmt"
	"math"

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

// bits returns the side transform as bit operations on a float64: the
// transformed value is (bits ^ flip) & keep.  XOR with the sign bit negates
// and masking it off takes the absolute value, exactly as -v and math.Abs
// do, so the counting loop needs no per-side variant.
func (s Side) bits() (flip, keep uint64) {
	const sign = 1 << 63
	switch s {
	case Abs:
		return 0, ^uint64(sign)
	case Lower:
		return sign, ^uint64(0)
	default:
		return 0, ^uint64(0)
	}
}

// Prep bundles the immutable inputs of a maxT run: the design, the batched
// statistics kernel over the (possibly rank-transformed) rows, the
// observed statistics and the induced row order.  A Prep is safe for
// concurrent use; per-goroutine scratch lives in Scratch values.
//
// The kernel is built IN STEP-DOWN ORDER: its row j is original row
// Order[j], held in the kernel's own layout (stat.NewKernel), so the
// counting pass walks the kernel's output front to back with no
// indirection and a run may start at any position (ProcessFrom).  That is
// the prep's one copy of the rows.  Everything a caller reads or supplies
// — Stat, Obs, Counts, Result — stays indexed by original row.
type Prep struct {
	Design *stat.Design
	Side   Side
	Kernel stat.BatchKernel // the statistics engine, rows in step-down order

	Stat  []float64 // untransformed observed statistic per row
	Obs   []float64 // side-transformed observed statistic per row
	Order []int     // row indices by decreasing Obs; NaN rows at the end
	Valid int       // number of rows with a computable observed statistic

	pobs []float64      // Obs by step-down position, for the Valid computable rows
	isa  stat.KernelISA // counting lane, captured when the prep is built
}

// NewPrepMatrix builds the prep over a flat matrix: it applies the rank
// transform when the test requires it (Wilcoxon) or when nonpara is set,
// computes observed statistics under the design's labelling, derives the
// step-down order, and builds the kernel with its precomputed per-row
// moments over its own copy of the rows in that order.  The input matrix
// is not modified.
func NewPrepMatrix(m matrix.Matrix, d *stat.Design, side Side, nonpara bool) (*Prep, error) {
	if m.IsEmpty() {
		return nil, fmt.Errorf("maxt: empty data matrix")
	}
	if m.Cols != d.N {
		return nil, fmt.Errorf("maxt: matrix has %d columns, design has %d", m.Cols, d.N)
	}
	if len(m.Data) != m.Rows*m.Cols {
		return nil, fmt.Errorf("maxt: matrix data has %d elements for %dx%d", len(m.Data), m.Rows, m.Cols)
	}
	p := &Prep{Design: d, Side: side, isa: stat.ActiveKernelISA()}
	m = prepRows(m, d, nonpara)
	// The order comes from the observed statistics, so they are computed
	// first — by a kernel that reads m in place, through the engine's own
	// path at a batch of one — and the kernel the run uses takes that
	// kernel's per-row state into step-down order.  Every per-row pass,
	// here and inside the kernels, runs a block of rows to a goroutine
	// (stat.ForBlocks).
	n := m.Rows
	p.Stat = make([]float64, n)
	p.Obs = make([]float64, n)
	k, err := stat.NewKernel(d, m, nil)
	if err != nil {
		return nil, err
	}
	stat.ForBlocks(n, func(lo, hi int) {
		bs := &stat.BatchScratch{}
		k.OpenBatch(d.Labels, 1, bs)
		st := p.Stat[lo:hi]
		k.StatsRows(lo, hi, st, 1, 1, bs)
		for i, t := range st {
			if t == 0 {
				// The two-sample t kernels' subtraction form gives −0 where
				// the group means are equal; the statistic is served as +0,
				// as the per-row statistics give it.  ±0 compare equal, so
				// no order or count moves.
				st[i] = 0
			}
		}
	})
	p.rankRows()
	if p.Kernel, err = stat.ReorderKernel(k, d, m, p.Order); err != nil {
		return nil, err
	}
	return p, nil
}

// prepRows returns the rows the kernels read: m itself, or a rank-
// transformed copy when the test requires ranks or nonpara is set.
func prepRows(m matrix.Matrix, d *stat.Design, nonpara bool) matrix.Matrix {
	if !d.NeedsRanks() && !nonpara {
		return m
	}
	m = m.Clone()
	stat.ForBlocks(m.Rows, func(lo, hi int) {
		scratch := make([]int, m.Cols)
		for i := lo; i < hi; i++ {
			stat.Ranks(m.Row(i), scratch)
		}
	})
	return m
}

// rankRows derives everything that follows from the observed statistics:
// their side transform Obs, the step-down Order, Valid and pobs.
func (p *Prep) rankRows() {
	for i, t := range p.Stat {
		if math.IsNaN(t) {
			p.Obs[i] = math.NaN()
		} else {
			p.Obs[i] = p.Side.transform(t)
		}
	}
	p.Order = stepDownOrder(p.Obs)
	p.Valid = 0
	for _, r := range p.Order {
		if math.IsNaN(p.Obs[r]) {
			break
		}
		p.Valid++
	}
	p.pobs = make([]float64, p.Valid)
	for j, r := range p.Order[:p.Valid] {
		p.pobs[j] = p.Obs[r]
	}
}

// stepDownOrder returns the row indices by decreasing obs: NaN rows at
// the end, ±0 equal, ties broken on row index — the order of
// cmp.Or(cmp.Compare(obs[b], obs[a]), cmp.Compare(a, b)), total, so the
// step-down order and therefore the parallel reduction are deterministic.
// It sorts descKey(obs[i]) by a least-significant-digit radix sort, a
// byte a pass; every pass is stable, so equal keys keep their rows in
// index order.  A pass whose byte is the same for every row moves nothing
// and is skipped.
func stepDownOrder(obs []float64) []int {
	type keyed struct {
		key uint64
		row int
	}
	n := len(obs)
	a, b := make([]keyed, n), make([]keyed, n)
	var hist [8][256]int
	for i, v := range obs {
		k := descKey(v)
		a[i] = keyed{k, i}
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	for d := range hist {
		h := &hist[d]
		if n == 0 || h[byte(a[0].key>>(8*d))] == n {
			continue
		}
		pos := 0
		for c, cnt := range h {
			h[c] = pos
			pos += cnt
		}
		for _, e := range a {
			c := byte(e.key >> (8 * d))
			b[h[c]] = e
			h[c]++
		}
		a, b = b, a
	}
	order := make([]int, n)
	for j, e := range a {
		order[j] = e.row
	}
	return order
}

// descKey maps v to a key whose ascending order is v's decreasing order,
// with ±0 one key and every NaN the largest.  A negative value's bits
// already grow as it decreases; a non-negative value's grow as it
// increases, so they are inverted, the sign bit cleared to keep them below
// every negative's.  The largest key a number reaches is -Inf's,
// 0xfff0000000000000.
func descKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	if v == 0 {
		v = 0 // −0 sorts with +0
	}
	k := math.Float64bits(v)
	if k>>63 == 0 {
		k = ^k &^ (1 << 63)
	}
	return k
}

// Rows returns the number of rows (genes) in the prepared matrix.
func (p *Prep) Rows() int { return len(p.Order) }

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

// MergeMasked is Merge for a sequential run: rows with frozen[i] != 0
// keep their counts, pinned at the permutation count they froze at,
// while B — the shared denominator of the rows still accumulating —
// advances.  A nil frozen merges every row.
func (c *Counts) MergeMasked(o *Counts, frozen []int64) {
	if frozen == nil {
		c.Merge(o)
		return
	}
	for i, f := range frozen {
		if f == 0 {
			c.Raw[i] += o.Raw[i]
			c.Adj[i] += o.Adj[i]
		}
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

// Scratch holds per-goroutine working storage for ProcessBatched and
// ProcessFrom, so concurrent chunks never share mutable state.  The
// batch fields are sized lazily by ProcessBatched and retain their
// capacity across preps (see ScratchFrom), which is what makes the jobs
// worker path allocation-free in steady state.
type Scratch struct {
	lab []int // a delta batch's start labelling

	// Exceedance counts of the call in progress, indexed by step-down
	// position; scatter adds them into the caller's Counts by row.
	raw, adj []int64

	labs  []int              // batch × N flat labellings
	blk   []float64          // one block of statistics, [position][labelling]
	u     []float64          // running successive maximum per labelling
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
	s.raw = resize(s.raw, p.Valid)
	s.adj = resize(s.adj, p.Valid)
	if s.bks == nil {
		s.bks = &stat.BatchScratch{}
	}
	return s
}

// blockRows is the number of step-down positions evaluated and counted at
// a time: 128 rows × 64 labellings of statistics are 64 KB, written by the
// kernel and read back by the counter while still in L2.  Blocks sit on a
// fixed grid of positions [128k, 128k+128), cut to [first, Valid), so
// every row octet and quad a block holds is aligned in the kernel
// (blockStart).
const blockRows = 128

// blockStart returns where the block ending at position hi starts: its
// grid line, or first if that lies above it.  A run walks blocks
// [blockStart(hi, first), hi) from hi = Valid down to first.
func blockStart(hi, first int) int {
	return max((hi-1)&^(blockRows-1), first)
}

// ensureBatch sizes the batch buffers for batches of up to batch
// labellings, reusing capacity.
func (p *Prep) ensureBatch(s *Scratch, batch int) {
	s.labs = resize(s.labs, batch*p.Design.N)
	s.blk = resize(s.blk, batch*blockRows)
	s.u = resize(s.u, batch)
	if cap(s.moves) < batch-1 {
		s.moves = make([]stat.Exchange, batch-1)
	}
}

// ProcessBatched accumulates exceedance counts for permutation indices
// [lo, hi) of gen into c.  It is the computational kernel of both mt.maxT
// and pmaxT: the serial run processes [0, B); rank r of a parallel run
// processes its chunk, with the master's chunk containing index 0 (the
// observed labelling, Figure 2).  The chunk is evaluated in batches of up
// to batch labellings, so each matrix row is read once per batch instead
// of once per permutation.  A labelling's statistics are bitwise
// independent of the batch it rides in, so the accumulated counts are the
// same for every batch size; batch <= 1 means batches of one.  scratch may
// be nil, in which case temporary storage is allocated.
func ProcessBatched(p *Prep, gen perm.Generator, lo, hi int64, c *Counts, scratch *Scratch, batch int) {
	ProcessFrom(p, gen, lo, hi, c, scratch, batch, 0)
}

// ProcessFrom is ProcessBatched over step-down positions first..Valid-1
// only: rows above position first are neither evaluated nor counted.  A
// row's raw count is its own and its adjusted count a maximum over the
// positions at and below it, so the rows that are counted receive
// bit-for-bit the counts of a full run — the sequential engine passes its
// frozen prefix.
//
// A batch is opened once and walked in blocks of the blockRows grid from
// the least significant position upward: the kernel writes a block's
// statistics [position][labelling] and countBlock consumes it at once.
// When the generator emits single-exchange deltas (perm.RevolvingDoor) AND
// the kernel can evaluate them exactly (stat.DeltaKernel on integer rank
// data), a block costs one subtract and one add per (row, permutation) in
// place of the O(n1) column scatter.  The delta statistics are bitwise
// identical to the batch ones, so the fast path changes wall time only —
// counts, p-values, cache keys and checkpoints are unaffected.
func ProcessFrom(p *Prep, gen perm.Generator, lo, hi int64, c *Counts, s *Scratch, batch, first int) {
	if lo >= hi {
		return
	}
	if s == nil {
		s = p.NewScratch()
	}
	batch = int(max(min(int64(batch), hi-lo), 1))
	p.ensureBatch(s, batch)
	dk, okDK := p.Kernel.(stat.DeltaKernel)
	dg, okDG := gen.(perm.DeltaGenerator)
	useDelta := okDK && okDG && dk.DeltaOK()
	first = min(max(first, 0), p.Valid)
	clear(s.raw)
	clear(s.adj)
	for base := lo; base < hi; base += int64(batch) {
		nb := int(min(int64(batch), hi-base))
		u := s.u[:nb]
		for b := range u {
			u[b] = math.Inf(-1)
		}
		if useDelta {
			moves := s.moves[:nb-1]
			dg.LabelsDelta(base, int64(nb), s.lab, moves)
			dk.OpenDelta(s.lab, moves, s.bks)
		} else {
			labs := s.labs[:nb*p.Design.N]
			gen.Labels(base, int64(nb), labs)
			p.Kernel.OpenBatch(labs, nb, s.bks)
		}
		for bhi := p.Valid; bhi > first; {
			blo := blockStart(bhi, first)
			if useDelta {
				dk.DeltaRows(blo, bhi, s.blk, 1, nb, s.bks)
			} else {
				p.Kernel.StatsRows(blo, bhi, s.blk, 1, nb, s.bks)
			}
			p.countBlock(s.blk, blo, bhi, nb, u, s.raw, s.adj)
			bhi = blo
		}
	}
	for j := first; j < p.Valid; j++ {
		r := p.Order[j]
		c.Raw[r] += s.raw[j]
		c.Adj[r] += s.adj[j]
	}
	c.B += hi - lo
}

// tally folds one side-transformed permuted statistic t into the running
// successive maximum u and returns the new maximum with the raw and
// adjusted exceedance increments against the observed statistic o.  A NaN
// statistic becomes -Inf — it never raises the maximum and reaches only an
// observed -Inf — which a bare t >= o (false for NaN) would not do.
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

// tallyRow folds one position's statistics z under len(z) labellings into
// their running maxima u and returns how many reach the observed statistic
// o, raw and adjusted.  It is the counting semantics: tallyBlock walks it
// over a block, and the block lanes (countBlockAVX2, countBlockAVX512) are
// pinned to that walk bit for bit, u included.
func tallyRow(z, u []float64, o float64, flip, keep uint64) (r, a int64) {
	u = u[:len(z)]
	for b, v := range z {
		var rb, ab int64
		u[b], rb, ab = tally(math.Float64frombits((math.Float64bits(v)^flip)&keep), u[b], o)
		r += rb
		a += ab
	}
	return r, a
}

// tallyBlock folds len(u) labellings of a [position][labelling] block —
// position j's at blk[j*nb:] — into their running maxima u, from the last
// position to the first, adding each position's exceedances to raw[j] and
// adj[j].  It is the generic lane and the AVX2 lane's nb mod 4 tail; the
// assembly lanes take the same arguments.
func tallyBlock(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64) {
	for j := len(pobs) - 1; j >= 0; j-- {
		r, a := tallyRow(blk[j*nb:][:len(u)], u, pobs[j], flip, keep)
		raw[j] += r
		adj[j] += a
	}
}

// countBlock adds the exceedances of positions [lo, hi) under nb
// labellings to the position accumulators raw and adj.  blk holds their
// untransformed statistics, position j's at blk[(j-lo)*nb:][:nb], and u the
// labellings' running successive maxima, carried from the block below.  It
// is the single counting path of every batch size, so no two can diverge.
// The whole block goes to one lane call (countLane), which walks it from
// the least significant position upward and, under a SIMD ISA, keeps a
// strip of labellings' maxima in registers across all its positions,
// adding once per (position, strip) into raw and adj.
func (p *Prep) countBlock(blk []float64, lo, hi, nb int, u []float64, raw, adj []int64) {
	if lo >= hi {
		return
	}
	flip, keep := p.Side.bits()
	pobs, raw, adj := p.pobs[lo:hi], raw[lo:hi], adj[lo:hi]
	blk = blk[:(hi-lo)*nb]
	lane, w := countLane(p.isa, nb)
	switch lane {
	case stat.ISAAVX512:
		countBlockAVX512(blk, nb, pobs, u[:w], raw, adj, flip, keep)
	case stat.ISAAVX2:
		countBlockAVX2(blk, nb, pobs, u[:w], raw, adj, flip, keep)
	}
	if w < nb {
		tallyBlock(blk[w:], nb, pobs, u[w:nb], raw, adj, flip, keep)
	}
}

// countLane is the lane countBlock hands a block of nb labellings to under
// isa, and how many of them it folds — the first w; tallyBlock takes the
// rest.  Gates are capability, not equality: every ISA from avx512 up runs
// the AVX-512 lane on all nb, avx2 the AVX2 lane on all but nb mod 4, and
// generic none.
func countLane(isa stat.KernelISA, nb int) (lane stat.KernelISA, w int) {
	switch {
	case isa >= stat.ISAAVX512:
		return stat.ISAAVX512, nb
	case isa >= stat.ISAAVX2 && nb >= 4:
		return stat.ISAAVX2, nb &^ 3
	}
	return stat.ISAGeneric, 0
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
	n := p.Rows()
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
	n := p.Rows()
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
