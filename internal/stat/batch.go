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
// A batch of one is the same code: maxt.ProcessBatched at batch 1 and a
// prep's observed statistics both run it.
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
// The two-sample kernel a run uses owns its rows as row octets
// (rowGroups): row i's column j at (i/8)·cols·8 + 8j + i%8, so one column
// of eight rows is one 64-byte line.  The SIMD lanes read an aligned octet
// (tsOct) or half of one (tsQuad) where it lies, with no per-batch copy,
// and the row pair and the general row read the same cells eight apart;
// maxt's row blocks start on multiples of 128, so every octet inside a
// block is aligned.  The observed-statistics pass reads the caller's
// matrix in place through the same accessor, one row to a group.
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

// gather loads the cell j elements on from row without a bounds check.  It
// is safe only for a row's column 0 in its kernel's layout and the
// selected-column entries buildSelLists constructs for that layout: they
// come from a range loop over a labelling of exactly the row's length,
// scaled by the layout's row-group width, so every cell read lies in the
// row's group.  The compiler cannot prove that across the slice
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
	// same length L), scaled to the kernel's row layout: entry w·j for
	// column j when its rows come in groups of w (rowGroups; w = 1 for
	// Wilcoxon).  An open delta chain keeps its start labelling's class-1
	// columns here instead.
	sel  []int32
	L    int
	sign []float64 // per-permutation statistic sign (two-sample t)
	as   []float64 // per-permutation accumulated sum (paired t)
	// What tsQuad and tsOct read beside the octets and the lists: the
	// tail's constants four times each — fa fb da db scale rt m2Tol NaN —
	// then the lane's rows' S and Q, eight slots each (lanes_amd64.h); and
	// their accumulators, every group's sums and sums of squares stored
	// before any group's tail runs (64 values a group under tsOct, 8 KB at
	// 64 labellings; 32 under tsQuad).
	qc  [48]float64
	acc []float64
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
// (ascending, each scaled by w) and each permutation's sign, returning the
// shared list length L.  Class sizes are invariant under relabelling, so
// every permutation selects the same number of columns.  cls follows the
// kernel's rule: the fixed class on unbalanced designs, the class
// containing column 0 otherwise (fixed < 0).
func buildSelLists(s *BatchScratch, labs []int, nb, cols, fixed int, withSign bool, w int32) int {
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
				dst = append(dst, w*int32(j))
			}
		}
	}
	return L
}

func (k *twoSampleKernel) NewBatchScratch(nb int) *BatchScratch {
	s := &BatchScratch{
		sel:  make([]int32, nb*k.x.cols),
		sign: make([]float64, nb),
	}
	if k.isa >= ISAAVX2 {
		s.acc = make([]float64, accLen(nb))
	}
	return s
}

// accLen is the length of the lanes' accumulator buffer for batches of nb
// labellings: 64 values per group of four (tsQuad uses 32 of them), and
// seven spare to start on a 64-byte boundary.
func accLen(nb int) int { return nb/4*64 + 7 }

func (k *twoSampleKernel) StatsBatch(labs []int, out matrix.Matrix, s *BatchScratch) {
	statsBatch(k, labs, out, s)
}

// OpenBatch builds the batch's lists and, for the lanes, broadcasts the
// tail's constants into qc and sizes their accumulators.
func (k *twoSampleKernel) OpenBatch(labs []int, nb int, s *BatchScratch) {
	cols := k.x.cols
	s.open(labs, nb, cols)
	s.L = buildSelLists(s, labs, nb, cols, k.cls, true, 1<<k.x.lg)
	t, ok := newTSTail(k.pooled, s.L, cols-s.L)
	if !ok || k.laneWidth(nb, 1, 1) == 0 {
		return
	}
	for c, v := range [8]float64{t.fa, t.fb, t.da, t.db, t.scale, t.rt, m2Tol, math.NaN()} {
		s.qc[4*c], s.qc[4*c+1], s.qc[4*c+2], s.qc[4*c+3] = v, v, v, v
	}
	s.acc = growF(s.acc, accLen(nb))
}

// laneWidth is the rows per SIMD lane StatsRows runs aligned NA-free rows
// in at nb labellings: 8 (tsOct) under avx512 when one of the strides is
// 1, 4 (tsQuad) under avx2 and above, 0 under generic, for fewer than four
// labellings, and on a caller's matrix (the lanes read row octets).
func (k *twoSampleKernel) laneWidth(nb, ps, rs int) int {
	switch {
	case k.x.lg != 3 || nb < 4:
		return 0
	case k.isa >= ISAAVX512 && (ps == 1 || rs == 1):
		return 8
	case k.isa >= ISAAVX2:
		return 4
	}
	return 0
}

// laneRows evaluates the w aligned NA-free rows from row i (w = 8: an
// octet; w = 4: either half of one) through tsOct or tsQuad, straight from
// the kernel's octets, for the labellings in whole fours, and the nb mod 4
// left over through the scalar chain.  tsOct prefetches the next octet,
// spread over the groups, when the range goes on past it.
func (k *twoSampleKernel) laneRows(i, w, hi int, out []float64, o, ps, rs int, s *BatchScratch, tail *tsTail) {
	nb, L, x := s.nb, s.L, &k.x
	g := nb / 4
	_ = out[o+(4*g-1)*ps+(w-1)*rs] // every store the routine makes is in bounds
	oct := &x.data[x.row0(i)]
	copy(s.qc[32:32+w], k.sum[i:i+w])
	copy(s.qc[40:40+w], k.sumsq[i:i+w])
	acc := s.acc[-(uintptr(unsafe.Pointer(&s.acc[0]))>>3)&7:] // from its first 64-byte boundary
	_ = acc[64*g-1]
	if w == 8 {
		next, pf := oct, 0
		if i+16 <= hi {
			next, pf = &x.data[x.row0(i+8)], (x.cols+g-1)/g
		}
		tsOct(oct, &s.sel[0], L, g, &s.qc, &s.sign[0], &acc[0], &out[o], ps, rs, next, pf)
	} else {
		tsQuad(oct, &s.sel[0], L, g, &s.qc, &s.sign[0], &acc[0], &out[o], ps, rs)
	}
	for p := 4 * g; p < nb; p++ {
		idx := s.sel[p*L : (p+1)*L]
		for r := 0; r < w; r++ {
			row := &x.data[x.row0(i+r)]
			var sa, qa float64
			for _, j := range idx {
				v := gather(row, j)
				sa += v
				qa += float64(v * v)
			}
			out[p*ps+o+r*rs] = tail.stat(s.sign[p], k.sum[i+r], k.sumsq[i+r], sa, qa)
		}
	}
}

func (k *twoSampleKernel) StatsRows(lo, hi int, out []float64, ps, rs int, s *BatchScratch) {
	nb, L, x := s.nb, s.L, &k.x
	cols := x.cols
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
	lane := k.laneWidth(nb, ps, rs)
	if !tailOK {
		lane = 0
	}
	for i := lo; i < hi; {
		o := (i - lo) * rs
		if k.flat[i] {
			for p := 0; p < nb; p++ {
				out[p*ps+o] = math.NaN()
			}
			i++
			continue
		}
		// Aligned NA-free row octets under avx512, quads (half octets)
		// under avx2: tsOct or tsQuad takes them through every four
		// labellings of the batch, lanes = rows — see the pair path below
		// for why cross-row and cross-permutation interleaving is the
		// lever and why lane-wise packed arithmetic stays bitwise equal.
		w := lane
		if w == 8 && (i&7 != 0 || !fast(i, 8)) {
			w = 4
		}
		if w == 4 && (i&3 != 0 || !fast(i, 4)) {
			w = 0
		}
		if w > 0 {
			k.laneRows(i, w, hi, out, o, ps, rs, s, &tail)
			i += w
			continue
		}
		// NA-free rows: every selected cell is present, so the group count
		// is L without tracking it and the per-element NaN test vanishes.
		// accumPairGo advances two permutations × two rows at once: within
		// one permutation the accumulation order is fixed by the tie
		// discipline (a serial dependency chain), so cross-permutation and
		// cross-row interleaving is what fills the FP pipeline.  Where
		// lanes run, a pair starts on an even row only, so that the rows
		// after it meet the lanes aligned.
		if tailOK && fast(i, 2) && (lane == 0 || i&1 == 0) {
			rowA, rowB := &x.data[x.row0(i)], &x.data[x.row0(i+1)]
			SA, QA := k.sum[i], k.sumsq[i]
			SB, QB := k.sum[i+1], k.sumsq[i+1]
			var acc [8]float64
			p := 0
			for ; p+2 <= nb; p += 2 {
				accumPairGo(rowA, rowB, &s.sel[p*L], &s.sel[(p+1)*L], L, &acc)
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
					vA := gather(rowA, j)
					sa += vA
					qa += float64(vA * vA)
					vB := gather(rowB, j)
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
		row := &x.data[x.row0(i)]
		n, S, Q := k.n[i], k.sum[i], k.sumsq[i]
		for p := 0; p < nb; p++ {
			idx := s.sel[p*L : (p+1)*L]
			na := 0
			var sa, qa float64
			for _, j := range idx {
				v := gather(row, j)
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
	s.L = buildSelLists(s, labs, nb, k.m.Cols, k.cls, false, 1)
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
