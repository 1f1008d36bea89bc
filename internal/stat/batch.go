// Permutation-batched kernel evaluation: the cache-blocked path behind the
// maxT main kernel, and the only evaluation path the engine has.
//
// Evaluating one labelling at a time streams the entire flat matrix from
// memory once per permutation; on the paper's 6102×76 workload that is
// ~3.7 MB per permutation and the loop is memory-bound, not compute-bound.
// A batch inverts the loop: each matrix row is loaded ONCE and, while it
// sits in L1, serves every permutation of a batch of labellings.  A batch
// is opened once (OpenBatch: selected-column lists, transposed label
// tables) and then evaluated over any row ranges, in any order
// (StatsRows); the engine asks for a block of rows at a time and counts it
// while it is still in cache, StatsBatch is the whole matrix in one range.
// A batch of one is the same code: maxt.Process and a prep's observed
// statistics both run it.
//
// Per row, the accumulation is column-scatter shaped: selected columns are
// visited in ascending order and each element feeds the accumulators of
// every permutation in the batch using it (the F, block-F and paired-t
// kernels scatter through per-batch transposed label/sign tables; the
// two-sample kernels run per-permutation selected-column lists, eight
// rows × four permutations at a time under avx512, four × four under
// avx2, two × two otherwise).  For any
// single permutation p, every variant touches p's selected columns in
// ascending order, so p's accumulators receive the identical sequence of
// IEEE-754 operations whatever the batch size or lane — the property that
// keeps exceedance counts, content-addressed cache keys and checkpoints
// valid for any batch size.  The tests pin it bit for bit against a
// one-labelling-at-a-time scalar loop kept as their oracle
// (scalar_test.go).  The batching also breaks the add-latency dependency
// chain that binds a one-labelling loop: within one permutation the
// accumulation order is fixed by the tie discipline (a serial chain), so
// interleaving independent permutations' chains is the only way to fill
// the FP pipeline.
//
// Every per-row finishing computation is one shared function (tsTail.stat
// via twoSampleStat, wilcoxonStat, fStat, pairTStat, blockFStat), so the
// lanes' operation sequences cannot diverge — the same argument PR 2's tie
// discipline makes for mathematically tied labellings.  The one exception
// is the two-sample t fast path under avx2 and avx512, where tsQuad
// (accum_avx2_amd64.s) and tsOct (accum_avx512_amd64.s) restate
// tsTail.stat lane-wise in assembly: there equality is a tested property,
// not a structural one — TestStatsBatchISASweep pins StatsRows to the
// scalar oracle bit for bit under every ISA on rows built to reach each
// branch of the tail, FuzzTSQuad and FuzzTSOct pin the routines to their
// Go statement (tsLaneGo) on arbitrary bit patterns.
//
// Every product in this package that feeds an add or a subtract is written
// float64(x*y).  The conversion forbids the compiler to fuse the two into
// one FMA, which it does on arm64 and not on amd64, so every architecture
// rounds the product as amd64 does (GOARCH=arm64 go build -gcflags=-S
// lists no FMADD, FMSUB, FNMADD or FNMSUB for this package).
package stat

import (
	"fmt"
	"math"
	"unsafe"

	"sprint/internal/matrix"
)

// gather loads row[j] without a bounds check.  It is safe only for the
// selected-column indices buildSelLists constructs: they come from a range
// loop over a labelling of exactly the row's length, so 0 <= j < len(row)
// by construction.  The compiler cannot prove that across the slice
// indirection, and the four per-element checks it would otherwise emit are
// measurable in the hot loop below.
func gather(row *float64, j int32) float64 {
	return *(*float64)(unsafe.Add(unsafe.Pointer(row), uintptr(uint32(j))*8))
}

// ptrI32 loads p[e] without a bounds check; e is loop-bounded by the
// caller against the list length.
func ptrI32(p *int32, e int) int32 {
	return *(*int32)(unsafe.Add(unsafe.Pointer(p), uintptr(e)*4))
}

// BatchKernel is the statistics engine for one (design, matrix) pair, as
// NewKernel builds it: OpenBatch + StatsRows for a batch of labellings over
// row ranges, StatsBatch for a batch over the whole matrix.  Kernels are
// immutable after construction and safe for concurrent use as long as each
// goroutine passes its own BatchScratch.
type BatchKernel interface {
	// Rows returns the number of matrix rows the kernel was built for.
	Rows() int
	// OpenBatch prepares scratch for the nb labellings packed in labs
	// (flattened batch × columns, row-major).  The batch stays open until
	// the scratch's next OpenBatch or OpenDelta.
	OpenBatch(labs []int, nb int, scratch *BatchScratch)
	// StatsRows evaluates rows [lo, hi) under every labelling of the batch
	// open in scratch and writes labelling p's statistic of row i to
	// out[p*ps+(i-lo)*rs].  Rows whose statistic is not computable get
	// NaN.  Each value is bitwise independent of the batch size.
	StatsRows(lo, hi int, out []float64, ps, rs int, scratch *BatchScratch)
	// StatsBatch opens the out.Rows labellings in labs and evaluates every
	// row, labelling p's statistics into out.Row(p).  scratch may be nil,
	// in which case temporary storage is allocated; a reused scratch grows
	// on demand and makes steady-state calls allocation-free.
	StatsBatch(labs []int, out matrix.Matrix, scratch *BatchScratch)
	// NewBatchScratch sizes a private scratch for batches of up to nb
	// labellings.  Scratch values must not be shared between concurrent
	// StatsBatch calls.
	NewBatchScratch(nb int) *BatchScratch
}

// BatchScratch holds per-goroutine working storage for StatsBatch.  The
// zero value is valid: every field grows on demand and is reusable across
// kernels (of any test type) and batch sizes, which is what lets a job
// worker own one scratch for its whole lifetime.
type BatchScratch struct {
	nb    int        // labellings in the open batch
	moves []Exchange // the open delta chain (aliases the caller's slice)
	// Per-permutation selected-column lists for the two-sample kernels:
	// permutation p's selected columns, ascending, at sel[p*L:(p+1)*L]
	// (class sizes are invariant under relabelling, so every list has the
	// same length L).  An open delta chain keeps its start labelling's
	// class-1 columns here instead.
	sel  []int32
	L    int
	sign []float64 // per-permutation statistic sign (two-sample t)
	as   []float64 // per-permutation accumulated sum (paired t)
	vab  []float64 // interleaved row pair (two-sample fast path)
	// What tsQuad and tsOct read (openQuad): the lists again as 8·j, the
	// rows by column (v8[8j+r] = row r's x, eight rows to a 64-byte line,
	// seven spare cells to start on one), and the tail's constants four
	// times each — fa fb da db scale rt m2Tol NaN — then the rows' S and Q,
	// eight slots each (lanes_amd64.h).
	sel8 []int32
	v8   []float64
	qc   [48]float64
	// What wilxQuad reads under avx2 (OpenDelta): the start's class-1
	// columns then each labelling's move (In, Out) as byte offsets 16·j
	// into a row quad, labelling 0's move being (0, 0); qc holds 0.5 and
	// the quad's mu1, sd, total four times each, qs the running sums
	// (written back) and the quad's row totals sum2.
	dq []int32
	qs [8]int32
	// Per-permutation class bins for F and block F, laid out [perm][class].
	bn []int
	bs []float64
	bq []float64
	// Column-major labels labT[j*nb+p] (F, block F) and pair signs
	// sgnT[j*nb+p] (paired t): the transposed layouts make the perm-inner
	// scatter loops walk contiguous memory.
	labT []int32
	sgnT []float64
	ord  []int // canonical-order scratch (F, block F)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// open starts a batch of nb labellings of labCols columns in s.
func (s *BatchScratch) open(labs []int, nb, labCols int) {
	if len(labs) != nb*labCols {
		panic(fmt.Sprintf("stat: batch labels have %d entries for %d labellings of %d columns", len(labs), nb, labCols))
	}
	s.nb = nb
}

// statsBatch is every kernel's StatsBatch: the whole matrix as one row
// range, permutation-major.
func statsBatch(k BatchKernel, labs []int, out matrix.Matrix, s *BatchScratch) {
	if out.Cols != k.Rows() {
		panic(fmt.Sprintf("stat: batch out has %d columns for %d matrix rows", out.Cols, k.Rows()))
	}
	if s == nil {
		s = &BatchScratch{}
	}
	k.OpenBatch(labs, out.Rows, s)
	k.StatsRows(0, k.Rows(), out.Data, out.Cols, 1, s)
}

// ---- two-sample t / Wilcoxon --------------------------------------------

// buildSelLists fills s.sel with each batch permutation's selected columns
// (ascending) and each permutation's sign, returning the shared list length
// L.  Class sizes are invariant under relabelling, so every permutation
// selects the same number of columns.  cls follows the kernel's rule: the
// fixed class on unbalanced designs, the class containing column 0
// otherwise (fixed < 0).
func buildSelLists(s *BatchScratch, labs []int, nb, cols, fixed int, withSign bool) int {
	if nb == 0 {
		return 0 // nothing anchors labs[0] below; an empty batch is a no-op
	}
	L := 0
	for j := 0; j < cols; j++ {
		cls := fixed
		if cls < 0 {
			cls = labs[0]
		}
		if labs[j] == cls {
			L++
		}
	}
	s.sel = growI32(s.sel, nb*L)
	if withSign {
		s.sign = growF(s.sign, nb)
	}
	for p := 0; p < nb; p++ {
		lab := labs[p*cols : (p+1)*cols]
		cls := fixed
		if cls < 0 {
			cls = lab[0]
		}
		if withSign {
			if cls == 0 {
				s.sign[p] = -1
			} else {
				s.sign[p] = 1
			}
		}
		dst := s.sel[p*L : p*L : (p+1)*L]
		for j, l := range lab {
			if l == cls {
				dst = append(dst, int32(j))
			}
		}
	}
	return L
}

func (k *twoSampleKernel) NewBatchScratch(nb int) *BatchScratch {
	s := &BatchScratch{
		sel:  make([]int32, nb*k.m.Cols),
		sign: make([]float64, nb),
	}
	if k.isa >= ISAAVX2 {
		s.sel8 = make([]int32, nb*k.m.Cols)
		s.v8 = make([]float64, 8*k.m.Cols+7)
	}
	return s
}

// openQuad fills what tsQuad and tsOct read beside the rows: the open
// batch's lists scaled to v8 offsets and the tail's constants, broadcast.
func (s *BatchScratch) openQuad(t *tsTail, cols int) {
	s.sel8 = growI32(s.sel8, len(s.sel))
	for e, j := range s.sel {
		s.sel8[e] = 8 * j
	}
	s.v8 = growF(s.v8, 8*cols+7)
	for c, v := range [8]float64{t.fa, t.fb, t.da, t.db, t.scale, t.rt, m2Tol, math.NaN()} {
		s.qc[4*c], s.qc[4*c+1], s.qc[4*c+2], s.qc[4*c+3] = v, v, v, v
	}
}

func (k *twoSampleKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

func (k *twoSampleKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	s.open(labs, nb, k.m.Cols)
	s.L = buildSelLists(s, labs, nb, k.m.Cols, k.cls, true)
	if tail, ok := newTSTail(k.pooled, s.L, k.m.Cols-s.L); ok && k.isa >= ISAAVX2 {
		s.openQuad(&tail, k.m.Cols)
	}
}

// laneWidth is the rows per SIMD lane StatsRows runs NA-free rows in:
// 8 (tsOct) under avx512 when one of the strides is 1, 4 (tsQuad) under
// avx2 and above, 0 under generic.
func (k *twoSampleKernel) laneWidth(ps, rs int) int {
	switch {
	case k.isa >= ISAAVX512 && (ps == 1 || rs == 1):
		return 8
	case k.isa >= ISAAVX2:
		return 4
	}
	return 0
}

// laneRows evaluates the w NA-free rows from row i (w = 8 or 4) through
// tsOct or tsQuad for the labellings in whole fours, and the nb mod 4 left
// over through the scalar chain.  Each call copies the rows into the lane
// buffer (fillLanes); the routines form the squares in registers.
func (k *twoSampleKernel) laneRows(i, w int, out []float64, o, ps, rs int, s *BatchScratch, tail *tsTail) {
	nb, L := s.nb, s.L
	if g := nb / 4; g > 0 {
		_ = out[o+(4*g-1)*ps+(w-1)*rs]                         // every store the routine makes is in bounds
		v8 := s.v8[-(uintptr(unsafe.Pointer(&s.v8[0]))>>3)&7:] // from its first 64-byte boundary
		k.fillLanes(unsafe.Slice((*[8]float64)(unsafe.Pointer(&v8[0])), len(v8)/8), i, w)
		copy(s.qc[32:32+w], k.sum[i:i+w])
		copy(s.qc[40:40+w], k.sumsq[i:i+w])
		if w == 8 {
			tsOct(&v8[0], &s.sel8[0], L, g, &s.qc, &s.sign[0], &out[o], ps, rs)
		} else {
			tsQuad(&v8[0], &s.sel8[0], L, g, &s.qc, &s.sign[0], &out[o], ps, rs)
		}
	}
	for p := nb &^ 3; p < nb; p++ {
		idx := s.sel[p*L : (p+1)*L]
		for r := 0; r < w; r++ {
			row := k.m.Row(i + r)
			var sa, qa float64
			for _, j := range idx {
				v := row[j]
				sa += v
				qa += float64(v * v)
			}
			out[p*ps+o+r*rs] = tail.stat(s.sign[p], k.sum[i+r], k.sumsq[i+r], sa, qa)
		}
	}
}

// fillLanes copies rows [i, i+w) (w = 8 or 4) into the lane buffer, one
// 64-byte line per column: lines[j][r] = row i+r's column j.  The rows are
// read side by side so that each line is written in one step; a row at a
// time read slower on BenchmarkCount's kernel/avx512 rung in 7 of 8
// alternations.
func (k *twoSampleKernel) fillLanes(lines [][8]float64, i, w int) {
	c := k.m.Cols
	rows := k.m.Data[i*c : (i+w)*c]
	r0, r1, r2, r3 := rows[:c], rows[c:][:c], rows[2*c:][:c], rows[3*c:][:c]
	lines = lines[:c]
	if w == 4 {
		for j := range r0 {
			l := &lines[j]
			l[0], l[1], l[2], l[3] = r0[j], r1[j], r2[j], r3[j]
		}
		return
	}
	r4, r5, r6, r7 := rows[4*c:][:c], rows[5*c:][:c], rows[6*c:][:c], rows[7*c:][:c]
	for j := range r0 {
		l := &lines[j]
		l[0], l[1], l[2], l[3] = r0[j], r1[j], r2[j], r3[j]
		l[4], l[5], l[6], l[7] = r4[j], r5[j], r6[j], r7[j]
	}
}

func (k *twoSampleKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb, L, cols := s.nb, s.L, k.m.Cols
	// On NA-free rows every permutation's accumulated group has exactly L
	// members, so the tail invariants are one batch-level constant.
	tail, tailOK := newTSTail(k.pooled, L, cols-L)
	fast := func(i, w int) bool { // rows [i, i+w) exist, are NA-free and not constant
		if i+w > hi {
			return false
		}
		for r := i; r < i+w; r++ {
			if k.flat[r] || k.n[r] != cols {
				return false
			}
		}
		return true
	}
	lane := k.laneWidth(ps, rs)
	for i := lo; i < hi; {
		o := (i - lo) * rs
		if k.flat[i] {
			for p := 0; p < nb; p++ {
				out[p*ps+o] = math.NaN()
			}
			i++
			continue
		}
		// NA-free row octets under avx512, quads under avx2: tsOct or
		// tsQuad takes them through every four labellings of the batch,
		// lanes = rows — see the pair path below for why cross-row and
		// cross-permutation interleaving is the lever and why lane-wise
		// packed arithmetic stays bitwise equal.
		w := lane
		if w == 8 && !fast(i, 8) {
			w = 4
		}
		if tailOK && w > 0 && fast(i, w) {
			k.laneRows(i, w, out, o, ps, rs, s, &tail)
			i += w
			continue
		}
		// NA-free rows: every selected cell is present, so the group count
		// is L without tracking it and the per-element NaN test vanishes.
		// The row pair is interleaved into vab so that accumPairGo advances
		// two permutations × two rows at once: within one permutation the
		// accumulation order is fixed by the tie discipline (a serial
		// dependency chain), so cross-permutation and cross-row
		// interleaving is what fills the FP pipeline.
		if tailOK && fast(i, 2) {
			rowA, rowB := k.m.Row(i), k.m.Row(i+1)
			s.vab = growF(s.vab, 2*cols)
			for j := 0; j < cols; j++ {
				s.vab[2*j] = rowA[j]
				s.vab[2*j+1] = rowB[j]
			}
			vab := &s.vab[0]
			SA, QA := k.sum[i], k.sumsq[i]
			SB, QB := k.sum[i+1], k.sumsq[i+1]
			var acc [8]float64
			p := 0
			for ; p+2 <= nb; p += 2 {
				accumPairGo(vab, &s.sel[p*L], &s.sel[(p+1)*L], L, &acc)
				o0, o1 := p*ps+o, (p+1)*ps+o
				out[o0] = tail.stat(s.sign[p], SA, QA, acc[0], acc[2])
				out[o0+rs] = tail.stat(s.sign[p], SB, QB, acc[1], acc[3])
				out[o1] = tail.stat(s.sign[p+1], SA, QA, acc[4], acc[6])
				out[o1+rs] = tail.stat(s.sign[p+1], SB, QB, acc[5], acc[7])
			}
			for ; p < nb; p++ {
				idx := s.sel[p*L : (p+1)*L]
				var sa, qa, sb, qb float64
				for _, j := range idx {
					vA := rowA[j]
					sa += vA
					qa += float64(vA * vA)
					vB := rowB[j]
					sb += vB
					qb += float64(vB * vB)
				}
				out[p*ps+o] = tail.stat(s.sign[p], SA, QA, sa, qa)
				out[p*ps+o+rs] = tail.stat(s.sign[p], SB, QB, sb, qb)
			}
			i += 2
			continue
		}
		// General row (missing cells, or an unpaired NA-free row): one
		// accumulation per permutation, row already in L1.
		row := k.m.Row(i)
		n, S, Q := k.n[i], k.sum[i], k.sumsq[i]
		for p := 0; p < nb; p++ {
			idx := s.sel[p*L : (p+1)*L]
			na := 0
			var sa, qa float64
			for _, j := range idx {
				v := row[j]
				if v == v {
					na++
					sa += v
					qa += float64(v * v)
				}
			}
			out[p*ps+o] = twoSampleStat(k.pooled, s.sign[p], n, S, Q, na, sa, qa)
		}
		i++
	}
}

func (k *wilcoxonKernel) NewBatchScratch(nb int) *BatchScratch {
	return &BatchScratch{sel: make([]int32, nb*k.m.Cols)}
}

func (k *wilcoxonKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

func (k *wilcoxonKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	s.open(labs, nb, k.m.Cols)
	s.L = buildSelLists(s, labs, nb, k.m.Cols, k.cls, false)
}

func (k *wilcoxonKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb, L := s.nb, s.L
	for i := lo; i < hi; i++ {
		o := (i - lo) * rs
		nn, total, totalSq := k.n[i], k.total[i], k.totalSq[i]
		full := nn == k.m.Cols
		if k.ir != nil && k.ir.ok[i] {
			// Integer fast path: 4 permutations' scaled rank sums advance
			// per gather step in independent int64 lanes (no NaN tests, no
			// rounding — the sums are exact, so the converted floats equal
			// the float accumulation bit for bit).
			ri := k.ir.row(i)
			p := 0
			if full {
				tail := &k.tails[i]
				for ; p+4 <= nb; p += 4 {
					i0 := s.sel[(p+0)*L : (p+1)*L]
					i1 := s.sel[(p+1)*L : (p+2)*L]
					i2 := s.sel[(p+2)*L : (p+3)*L]
					i3 := s.sel[(p+3)*L : (p+4)*L]
					var s0, s1, s2, s3 int64
					for e := 0; e < L; e++ {
						s0 += int64(ri.at(i0[e]))
						s1 += int64(ri.at(i1[e]))
						s2 += int64(ri.at(i2[e]))
						s3 += int64(ri.at(i3[e]))
					}
					out[(p+0)*ps+o] = tail.stat(float64(s0) * 0.5)
					out[(p+1)*ps+o] = tail.stat(float64(s1) * 0.5)
					out[(p+2)*ps+o] = tail.stat(float64(s2) * 0.5)
					out[(p+3)*ps+o] = tail.stat(float64(s3) * 0.5)
				}
				for ; p < nb; p++ {
					idx := s.sel[p*L : (p+1)*L]
					var isum int64
					for _, j := range idx {
						isum += int64(ri.at(j))
					}
					out[p*ps+o] = tail.stat(float64(isum) * 0.5)
				}
			} else {
				for ; p < nb; p++ {
					idx := s.sel[p*L : (p+1)*L]
					nc := 0
					var isum int64
					for _, j := range idx {
						if v := ri.at(j); v != 0 {
							nc++
							isum += int64(v)
						}
					}
					out[p*ps+o] = wilcoxonStat(k.cls, nc, float64(isum)*0.5, nn, total, totalSq)
				}
			}
			continue
		}
		row := k.m.Row(i)
		p := 0
		if full {
			tail := &k.tails[i]
			for ; p+4 <= nb; p += 4 {
				i0 := s.sel[(p+0)*L : (p+1)*L]
				i1 := s.sel[(p+1)*L : (p+2)*L]
				i2 := s.sel[(p+2)*L : (p+3)*L]
				i3 := s.sel[(p+3)*L : (p+4)*L]
				var s0, s1, s2, s3 float64
				for e := 0; e < L; e++ {
					s0 += row[i0[e]]
					s1 += row[i1[e]]
					s2 += row[i2[e]]
					s3 += row[i3[e]]
				}
				out[(p+0)*ps+o] = tail.stat(s0)
				out[(p+1)*ps+o] = tail.stat(s1)
				out[(p+2)*ps+o] = tail.stat(s2)
				out[(p+3)*ps+o] = tail.stat(s3)
			}
		}
		for ; p < nb; p++ {
			idx := s.sel[p*L : (p+1)*L]
			nc := 0
			var sc float64
			for _, j := range idx {
				v := row[j]
				if v == v {
					nc++
					sc += v
				}
			}
			out[p*ps+o] = wilcoxonStat(k.cls, nc, sc, nn, total, totalSq)
		}
	}
}

// ---- one-way F ----------------------------------------------------------

// transposeLabels fills s.labT[j*nb+p] = labs[p*cols+j] so the perm-inner
// scatter reads labels contiguously.
func transposeLabels(s *BatchScratch, labs []int, nb, cols int) {
	s.labT = growI32(s.labT, cols*nb)
	for p := 0; p < nb; p++ {
		lab := labs[p*cols : (p+1)*cols]
		for j, l := range lab {
			s.labT[j*nb+p] = int32(l)
		}
	}
}

func (k *fKernel) NewBatchScratch(nb int) *BatchScratch {
	return &BatchScratch{
		bn:   make([]int, nb*k.k),
		bs:   make([]float64, nb*k.k),
		bq:   make([]float64, nb*k.k),
		labT: make([]int32, k.m.Cols*nb),
		ord:  make([]int, k.k),
	}
}

func (k *fKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

func (k *fKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	s.open(labs, nb, k.m.Cols)
	transposeLabels(s, labs, nb, k.m.Cols)
	s.bn, s.bs, s.bq = growI(s.bn, nb*k.k), growF(s.bs, nb*k.k), growF(s.bq, nb*k.k)
	s.ord = growI(s.ord, k.k)
}

func (k *fKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb, kk := s.nb, k.k
	bn, bs, bq := s.bn[:nb*kk], s.bs[:nb*kk], s.bq[:nb*kk]
	for i := lo; i < hi; i++ {
		o := (i - lo) * rs
		if k.flat[i] {
			for p := 0; p < nb; p++ {
				out[p*ps+o] = math.NaN()
			}
			continue
		}
		for c := range bn {
			bn[c], bs[c], bq[c] = 0, 0, 0
		}
		for j, v := range k.m.Row(i) {
			if v != v {
				continue
			}
			labCol := s.labT[j*nb : j*nb+nb]
			for p, g32 := range labCol {
				g := int(g32)
				if g < 0 || g >= kk {
					continue
				}
				c := p*kk + g
				bn[c]++
				bs[c] += v
				bq[c] += float64(v * v)
			}
		}
		for p := 0; p < nb; p++ {
			b := p * kk
			out[p*ps+o] = fStat(bn[b:b+kk], bs[b:b+kk], bq[b:b+kk], s.ord, kk)
		}
	}
}

// ---- paired t -----------------------------------------------------------

func (k *pairTKernel) NewBatchScratch(nb int) *BatchScratch {
	return &BatchScratch{sgnT: make([]float64, k.pairs*nb), as: make([]float64, nb)}
}

func (k *pairTKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

func (k *pairTKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	cols := 2 * k.pairs
	s.open(labs, nb, cols)
	s.sgnT = growF(s.sgnT, k.pairs*nb)
	s.as = growF(s.as, nb)
	for p := 0; p < nb; p++ {
		lab := labs[p*cols : (p+1)*cols]
		for j := 0; j < k.pairs; j++ {
			// The difference is (value labelled 1) - (value labelled 0); a
			// pair stored (1,0) flips it.
			if lab[2*j] == 1 {
				s.sgnT[j*nb+p] = -1
			} else {
				s.sgnT[j*nb+p] = 1
			}
		}
	}
}

func (k *pairTKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb := s.nb
	sum := s.as[:nb]
	for i := lo; i < hi; i++ {
		for p := range sum {
			sum[p] = 0
		}
		for j, dv := range k.diffs.Row(i) {
			if dv != dv {
				continue
			}
			sgnCol := s.sgnT[j*nb : j*nb+nb]
			for p, sg := range sgnCol {
				sum[p] += float64(sg * dv)
			}
		}
		o, m, sumsq := (i-lo)*rs, k.cnt[i], k.sumsq[i]
		for p := 0; p < nb; p++ {
			out[p*ps+o] = pairTStat(sum[p], m, sumsq)
		}
	}
}

// ---- block F ------------------------------------------------------------

func (k *blockFKernel) NewBatchScratch(nb int) *BatchScratch {
	return &BatchScratch{
		bs:   make([]float64, nb*k.k),
		labT: make([]int32, k.m.Cols*nb),
		ord:  make([]int, k.k),
	}
}

func (k *blockFKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

func (k *blockFKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	s.open(labs, nb, k.m.Cols)
	transposeLabels(s, labs, nb, k.m.Cols)
	s.bs = growF(s.bs, nb*k.k)
	s.ord = growI(s.ord, k.k)
}

func (k *blockFKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb, kk, blocks := s.nb, k.k, k.blocks
	treat := s.bs[:nb*kk]
	for i := lo; i < hi; i++ {
		o := (i - lo) * rs
		used := k.blockUsed[i]
		if used < 2 {
			for p := 0; p < nb; p++ {
				out[p*ps+o] = math.NaN()
			}
			continue
		}
		for c := range treat {
			treat[c] = 0
		}
		row := k.m.Row(i)
		comp := k.complete[i*blocks : (i+1)*blocks]
		for b, ok := range comp {
			if !ok {
				continue
			}
			base := b * kk
			for j := 0; j < kk; j++ {
				v := row[base+j]
				labCol := s.labT[(base+j)*nb : (base+j)*nb+nb]
				for p, t := range labCol {
					treat[p*kk+int(t)] += v
				}
			}
		}
		gm, ssTotal, ssBlock := k.grandMean[i], k.ssTotal[i], k.ssBlock[i]
		for p := 0; p < nb; p++ {
			b := p * kk
			out[p*ps+o] = blockFStat(treat[b:b+kk], s.ord, used, kk, gm, ssTotal, ssBlock)
		}
	}
}
