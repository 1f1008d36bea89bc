// Delta evaluation: the O(1)-per-permutation fast path for rank-valued
// rows under single-exchange permutation orders.
//
// Rank-based tests (Wilcoxon always, every test under nonpara="y") run on
// mid-ranks — exact half-integers.  Scaling by 2 turns every cell into a
// small integer, so per-row subset sums become EXACT int64 arithmetic, and
// exact arithmetic is order-insensitive: a subset sum maintained by one
// subtract + one add per permutation (when consecutive labellings differ by
// a single element exchange, as in perm.RevolvingDoor's Gray order) is the
// same integer a full re-accumulation produces.  Converting that integer
// back to float64 is exact too (the representability bounds below), so the
// delta path's statistics are bitwise identical to StatsRows' *by
// construction* — the same argument PR 3 makes for lane-wise SIMD, made
// here for incremental evaluation.
//
// The cost model: the batched column-scatter path pays O(n1) element visits
// per (row, permutation); the delta path pays O(1) — two int32 loads, two
// int64 adds — leaving the per-permutation statistic tail (hoisted into
// per-row state, see wilxTail) as the only remaining work.
//
// Under avx2 that remaining work runs four rows at a time: the integer
// view is stored in row quads, one quad column is one 16-byte load, and
// wilxQuad (accum_avx2_amd64.s) carries a quad's four sums in int32 lanes
// along the whole chain, tail and store in the same registers.  There the
// equality with the Go lane is a tested property, not a structural one —
// TestDeltaRowsISASweep pins DeltaRows to StatsRows bit for bit under every
// ISA, FuzzWilxQuad pins the routine to its Go statement (wilxQuadGo).
package stat

import (
	"fmt"
	"math"
	"unsafe"

	"sprint/internal/matrix"
)

// Exchange is one revolving-door move between consecutive labellings of a
// two-sample design: column Out leaves class 1 and column In enters it
// (all other columns keep their labels).
type Exchange struct {
	Out, In int32
}

// DeltaKernel is implemented by kernels that can evaluate a permutation
// batch described as a start labelling plus a chain of single-element
// exchanges, updating per-row accumulators in O(1) per move.  Only the
// Wilcoxon kernel does: its tail is two flops, so removing the O(n1) gather
// dominates.  (A two-sample t recurrence was measured and lost to SIMD
// re-accumulation below ~32 columns per group, a size no feasible complete
// enumeration reaches; those kernels keep the batch path.)
type DeltaKernel interface {
	BatchKernel
	// DeltaOK is the dispatch predicate: whether every row is exactly
	// representable as scaled integers — true for rank-transformed data.
	// When false, callers fall back to the batch path.
	DeltaOK() bool
	// OpenDelta prepares scratch for lab0 and the len(moves) labellings
	// reached by successively applying moves, which must stay unchanged
	// while the batch is open.
	OpenDelta(lab0 []int, moves []Exchange, scratch *BatchScratch)
	// DeltaRows is StatsRows for the chain open in scratch, bitwise
	// identical to StatsRows over the materialised labellings.
	DeltaRows(lo, hi int, out []float64, ps, rs int, scratch *BatchScratch)
	// StatsDelta opens the chain and evaluates every row, labelling p's
	// statistics into out.Row(p) (out.Rows = len(moves)+1).  scratch may
	// be nil.
	StatsDelta(lab0 []int, moves []Exchange, out matrix.Matrix, scratch *BatchScratch)
}

// Exactness bounds for the integer view.  Cells are stored as s = 2v (so
// mid-ranks become integers); with |s| ≤ maxScaled = 2^20 and at most
// maxIntCols = 2^11 columns, Σ|s| ≤ 2^31 and Σs² ≤ 2^51 — comfortably
// inside float64's 2^53 exact-integer range.  Every partial float sum the
// float kernels form over such cells is therefore exact (each
// partial sum is a half- or quarter-integer with an exactly representable
// value), which is what makes integer accumulation bitwise interchangeable
// with float accumulation in ANY order.
const (
	maxIntCols = 1 << 11
	maxScaled  = 1 << 20
)

// intRank is the exact integer view of a matrix whose rows hold
// half-integer values (mid-ranks, or any quantized data meeting the
// bounds): each cell is 2·m[i][j] as int32, with 0 marking a missing cell
// (valid because mid-ranks are ≥ 1, so 2v ≥ 2; the per-cell gate rejects
// rows containing genuine zeros or negatives).  Rows are stored in quads:
// row i's column j is data[(i/4)·cols·4 + 4j + i%4], the rows padded to a
// multiple of four, so one column of a quad is one 16-byte load (wilxQuad)
// and a single row is every fourth cell (intRow).
type intRank struct {
	cols int
	data []int32
	ok   []bool  // row passed the representability gate
	all  bool    // every row passed (the DeltaOK gate)
	sum2 []int64 // Σ 2v over the row's non-missing cells
}

// intCell reports whether v is representable in the integer view (NaN
// cells are, as the 0 sentinel).
func intCell(v float64) bool {
	if v != v {
		return true
	}
	sv := v * 2
	return sv == math.Trunc(sv) && sv >= 1 && sv <= maxScaled
}

// newIntRank builds the integer view, or nil when no row qualifies.  Like
// scrubNA, it scans before it allocates: raw continuous data fails the
// gate on each row's first fractional cell, so the common non-rank case
// costs one cheap pass and zero allocations.
func newIntRank(m matrix.Matrix) *intRank {
	if m.Cols == 0 || m.Cols > maxIntCols {
		return nil
	}
	any := false
	for i := 0; i < m.Rows && !any; i++ {
		rowOK := true
		for _, v := range m.Row(i) {
			if !intCell(v) {
				rowOK = false
				break
			}
		}
		any = rowOK
	}
	if !any {
		return nil
	}
	ir := &intRank{
		cols: m.Cols,
		data: make([]int32, (m.Rows+3)&^3*m.Cols),
		ok:   make([]bool, m.Rows),
		sum2: make([]int64, m.Rows),
	}
	ir.all = true
	for i := 0; i < m.Rows; i++ {
		dst := ir.data[i&^3*m.Cols+i&3:]
		rowOK := true
		var s2 int64
		for j, v := range m.Row(i) {
			if v != v { // missing: sentinel 0
				continue
			}
			if !intCell(v) {
				rowOK = false
				break
			}
			iv := int64(v * 2)
			dst[4*j] = int32(iv)
			s2 += iv
		}
		if rowOK {
			ir.ok[i] = true
			ir.sum2[i] = s2
		} else {
			ir.all = false
		}
	}
	return ir
}

// quad returns the cells of the quad holding row i, which starts at
// column 0 of its first row.
func (ir *intRank) quad(i int) []int32 {
	q := i &^ 3 * ir.cols
	return ir.data[q : q+4*ir.cols]
}

// row returns row i of the quad layout.
func (ir *intRank) row(i int) intRow { return intRow{&ir.quad(i)[i&3]} }

// intRow is one row of the quad layout, by its column 0: column j is 16·j
// bytes on.
type intRow struct{ c0 *int32 }

// at loads column j without a bounds check, like gather: every column it
// is handed comes from a labelling of exactly cols entries or from a move
// OpenDelta has checked, so 0 <= j < cols.
func (r intRow) at(j int32) int32 {
	return *(*int32)(unsafe.Add(unsafe.Pointer(r.c0), uintptr(uint32(j))*16))
}

// ---- Wilcoxon delta ------------------------------------------------------

// DeltaOK implements DeltaKernel.  Mid-rank rows always qualify; arbitrary
// data qualifies only when every row meets the exactness gate.
func (k *wilcoxonKernel) DeltaOK() bool { return k.ir != nil && k.ir.all }

func (k *wilcoxonKernel) StatsDelta(lab0 []int, moves []Exchange, out matrix.Matrix, s *BatchScratch) {
	if out.Rows == 0 {
		return
	}
	if out.Cols != k.m.Rows || out.Rows != len(moves)+1 {
		panic(fmt.Sprintf("stat: delta out is %dx%d for %d moves over %d matrix rows", out.Rows, out.Cols, len(moves), k.m.Rows))
	}
	if s == nil {
		s = &BatchScratch{}
	}
	k.OpenDelta(lab0, moves, s)
	k.DeltaRows(0, k.m.Rows, out.Data, out.Cols, 1, s)
}

// OpenDelta keeps the chain and the ascending class-1 columns of lab0 —
// the set the exchanges operate on — and, under avx2 and above, the same
// as the byte offsets wilxQuad reads (BatchScratch.dq).
func (k *wilcoxonKernel) OpenDelta(lab0 []int, moves []Exchange, s *BatchScratch) {
	if len(lab0) != k.m.Cols {
		panic(fmt.Sprintf("stat: delta start labelling has %d entries for %d columns", len(lab0), k.m.Cols))
	}
	if !k.DeltaOK() {
		panic("stat: delta evaluation on a kernel whose rows are not integer-representable")
	}
	for _, mv := range moves {
		if uint32(mv.In) >= uint32(k.m.Cols) || uint32(mv.Out) >= uint32(k.m.Cols) {
			panic(fmt.Sprintf("stat: delta move %+v outside %d columns", mv, k.m.Cols))
		}
	}
	s.nb, s.moves = len(moves)+1, moves
	s.sel = s.sel[:0]
	for j, l := range lab0 {
		if l == 1 {
			s.sel = append(s.sel, int32(j))
		}
	}
	if k.isa < ISAAVX2 {
		return
	}
	L := len(s.sel)
	s.dq = growI32(s.dq, L+2*s.nb)
	for e, j := range s.sel {
		s.dq[e] = 16 * j
	}
	dm := s.dq[L:]
	dm[0], dm[1] = 0, 0 // labelling 0 is the start: a move that changes nothing
	for p, mv := range moves {
		dm[2*p+2], dm[2*p+3] = 16*mv.In, 16*mv.Out
	}
	s.qc[0], s.qc[1], s.qc[2], s.qc[3] = 0.5, 0.5, 0.5, 0.5
}

// DeltaRows: per row, the class-1 count and scaled rank sum are maintained
// across moves — one subtract, one add — and each permutation's statistic
// falls out of the per-row hoisted tail.  Under avx2 the quads whose four
// rows take the steady-state lane run through wilxQuad, lanes = rows; the
// rows of a range that do not fill an aligned quad of such rows run one at
// a time (deltaRow).
func (k *wilcoxonKernel) DeltaRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	for i := lo; i < hi; {
		o := (i - lo) * rs
		if k.isa >= ISAAVX2 && i&3 == 0 && i+4 <= hi && k.quadLane(i) {
			k.deltaQuad(i, out, o, ps, rs, s)
			i += 4
			continue
		}
		k.deltaRow(i, out, o, ps, s)
		i++
	}
}

// quadLane reports whether all four rows of the quad starting at row i take
// the steady-state lane with int32 sums: NA-free, a computable tail, and
// a row total within int32 — every class-1 sum and its complement lie in
// [0, sum2], so neither can wrap.
func (k *wilcoxonKernel) quadLane(i int) bool {
	for r := i; r < i+4; r++ {
		if k.n[r] != k.m.Cols || !k.tails[r].ok || k.ir.sum2[r] > math.MaxInt32 {
			return false
		}
	}
	return true
}

// deltaQuad runs the quad starting at row i through wilxQuad for the
// labellings in whole fours, then the nb mod 4 left over through the Go
// lane, from the running sums the routine writes back.
func (k *wilcoxonKernel) deltaQuad(i int, out []float64, o, ps, rs int, s *BatchScratch) {
	nb, moves := s.nb, s.moves
	_ = out[o+(nb-1)*ps+3*rs]   // every store below is in bounds
	_ = s.dq[len(s.sel)+2*nb-1] // and every offset the routine reads
	for r := 0; r < 4; r++ {
		t := &k.tails[i+r]
		s.qc[4+r], s.qc[8+r], s.qc[12+r] = t.mu1, t.sd, t.total
		s.qs[4+r] = int32(k.ir.sum2[i+r])
	}
	wilxQuad(&k.ir.quad(i)[0], &s.dq[0], len(s.sel), nb/4, &s.qc, &s.qs, k.cls == 0, &out[o], ps, rs)
	p0 := nb &^ 3
	if p0 == nb {
		return
	}
	for r := 0; r < 4; r++ {
		ri := k.ir.row(i + r)
		s1 := int64(s.qs[r])
		if p0 > 0 {
			mv := moves[p0-1]
			s1 += int64(ri.at(mv.In)) - int64(ri.at(mv.Out))
		}
		k.fullLane(i+r, ri, s1, moves[p0:], out, o+r*rs+p0*ps, ps)
	}
}

// deltaRow evaluates row i alone under every labelling of the chain.
func (k *wilcoxonKernel) deltaRow(i int, out []float64, o, ps int, s *BatchScratch) {
	nb, moves, cls := s.nb, s.moves, k.cls
	ri := k.ir.row(i)
	n1c := 0
	var s1 int64
	for _, j := range s.sel {
		if v := ri.at(j); v != 0 {
			n1c++
			s1 += int64(v)
		}
	}
	nn, total, totalSq := k.n[i], k.total[i], k.totalSq[i]
	full := nn == k.m.Cols
	if full && k.tails[i].ok {
		k.fullLane(i, ri, s1, moves, out, o, ps)
		return
	}
	if full { // tail permanently uncomputable: NaN for every labelling
		for p := 0; p < nb; p++ {
			out[p*ps+o] = math.NaN()
		}
		return
	}
	// NA-bearing rows: counts shift with the moves; the general tail.
	sum2 := k.ir.sum2[i]
	for p := 0; p < nb; p++ {
		if p > 0 {
			mv := moves[p-1]
			vi, vo := ri.at(mv.In), ri.at(mv.Out)
			s1 += int64(vi) - int64(vo)
			if vi != 0 {
				n1c++
			}
			if vo != 0 {
				n1c--
			}
		}
		var nc int
		var sc float64
		if cls == 1 {
			nc = n1c
			sc = float64(s1) * 0.5
		} else {
			nc = nn - n1c
			sc = float64(sum2-s1) * 0.5
		}
		out[p*ps+o] = wilcoxonStat(cls, nc, sc, nn, total, totalSq)
	}
}

// fullLane is the steady-state lane of an NA-free row i with a computable
// tail: s1 is the class-1 sum of the labelling written to out[o], and the
// labellings reached by moves follow ps apart.  The class counts never
// vary, the tie-corrected variance is hoisted per row, and the tracked sum
// converts exactly — so the loop body is two int32 loads, one int64
// update, and the two-flop tail.  The expressions below are wilxTail.stat
// with its (invariant) branches hoisted out of the permutation loop:
// bitwise identical, since  (total − sc) − mu1  is exactly the op sequence
// stat forms.  wilxQuad restates them lane-wise.
func (k *wilcoxonKernel) fullLane(i int, ri intRow, s1 int64, moves []Exchange, out []float64, o, ps int) {
	tail := &k.tails[i]
	mu1, sd := tail.mu1, tail.sd
	if k.cls == 1 {
		out[o] = (float64(float64(s1)*0.5) - mu1) / sd
		for _, mv := range moves {
			o += ps
			s1 += int64(ri.at(mv.In)) - int64(ri.at(mv.Out))
			out[o] = (float64(float64(s1)*0.5) - mu1) / sd
		}
		return
	}
	// tail.neg: the accumulated class-0 sum is total − sc, and the tracked
	// class-1 sum already IS sc's complement — the two derivations compose
	// to sc0 = float64(sum2−s1)/2 and s1stat = total − sc0, both exact.
	total, sum2 := tail.total, k.ir.sum2[i]
	sc0 := float64(float64(sum2-s1) * 0.5)
	out[o] = (total - sc0 - mu1) / sd
	for _, mv := range moves {
		o += ps
		s1 += int64(ri.at(mv.In)) - int64(ri.at(mv.Out))
		sc0 = float64(float64(sum2-s1) * 0.5)
		out[o] = (total - sc0 - mu1) / sd
	}
}
