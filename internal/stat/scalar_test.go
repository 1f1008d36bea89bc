package stat

import "math"

// The scalar kernel loops: one labelling, every row, one statistic per
// (row, labelling) through the shared tails.  They were the engine's
// evaluation path until every caller moved to OpenBatch/StatsRows; they
// stay here, verbatim, as the bitwise oracle StatsRows and DeltaRows are
// pinned to (TestStatsBatchISASweep, TestStatsBatchBitwiseEqualsScalar,
// TestStatsDeltaBitwise, TestIntRankBitwiseVsFloat).

// scalarKernel is a kernel with its scalar oracle loop.
type scalarKernel interface {
	BatchKernel
	// Stats fills out[i] with the statistic of row i under lab.  scratch
	// may be nil, in which case temporary storage is allocated.
	Stats(lab []int, out []float64, scratch *KernelScratch)
	// NewScratch sizes a private scratch value for Stats calls.
	NewScratch() *KernelScratch
}

// scalar returns k's scalar oracle loop.
func scalar(k BatchKernel) scalarKernel { return k.(scalarKernel) }

// KernelScratch holds working storage for one Stats call.
type KernelScratch struct {
	idx []int     // selected columns (two-sample), canonical bin order (F, block F)
	cn  []int     // per-class counts (F)
	cs  []float64 // per-class sums (F), treatment sums (block F)
	cq  []float64 // per-class sums of squares (F)
	sgn []float64 // per-pair signs (paired t)
}

// selectColumns fills s.idx with the columns labelled cls.
func selectColumns(lab []int, cls int, s *KernelScratch) []int {
	idx := s.idx[:0]
	for j, l := range lab {
		if l == cls {
			idx = append(idx, j)
		}
	}
	s.idx = idx
	return idx
}

// at returns row i's column j of the layout.
func (g *rowGroups) at(i, j int) float64 { return g.data[g.row0(i)+j<<g.lg] }

func (k *twoSampleKernel) NewScratch() *KernelScratch {
	return &KernelScratch{idx: make([]int, 0, k.x.cols)}
}

func (k *twoSampleKernel) Stats(lab []int, out []float64, s *KernelScratch) {
	if s == nil {
		s = k.NewScratch()
	}
	cls := k.cls
	if cls < 0 {
		cls = lab[0]
	}
	idx := selectColumns(lab, cls, s)
	sign := 1.0 // the statistic is mean(class 1) - mean(class 0)
	if cls == 0 {
		sign = -1.0
	}
	// NA-free rows all share the group sizes (len(idx), cols-len(idx)), so
	// their tail invariants are computed once per call — the same hoisting
	// the batch path applies per batch, keeping the two paths bitwise equal.
	cols := k.x.cols
	tail, tailOK := newTSTail(k.pooled, len(idx), cols-len(idx))
	for i := 0; i < k.x.rows; i++ {
		if k.flat[i] {
			out[i] = math.NaN()
			continue
		}
		na := 0
		var sa, qa float64
		for _, j := range idx {
			v := k.x.at(i, j)
			if v == v {
				na++
				sa += v
				qa += v * v
			}
		}
		if tailOK && k.n[i] == cols {
			out[i] = tail.stat(sign, k.sum[i], k.sumsq[i], sa, qa)
		} else {
			out[i] = twoSampleStat(k.pooled, sign, k.n[i], k.sum[i], k.sumsq[i], na, sa, qa)
		}
	}
}

func (k *wilcoxonKernel) NewScratch() *KernelScratch {
	return &KernelScratch{idx: make([]int, 0, k.m.Cols)}
}

func (k *wilcoxonKernel) Stats(lab []int, out []float64, s *KernelScratch) {
	if s == nil {
		s = k.NewScratch()
	}
	idx := selectColumns(lab, k.cls, s)
	for i := 0; i < k.m.Rows; i++ {
		full := k.n[i] == k.m.Cols
		if k.ir != nil && k.ir.ok[i] {
			// Integer fast path: the scaled sum is exact, so converting it
			// back yields the identical float the accumulation below forms.
			ri := k.ir.row(i)
			var isum int64
			if full {
				for _, j := range idx {
					isum += int64(ri.at(int32(j)))
				}
				out[i] = k.tails[i].stat(float64(isum) * 0.5)
			} else {
				nc := 0
				for _, j := range idx {
					if v := ri.at(int32(j)); v != 0 {
						nc++
						isum += int64(v)
					}
				}
				out[i] = wilcoxonStat(k.cls, nc, float64(isum)*0.5, k.n[i], k.total[i], k.totalSq[i])
			}
			continue
		}
		row := k.m.Row(i)
		nc := 0
		var sc float64
		for _, j := range idx {
			v := row[j]
			if v == v {
				nc++
				sc += v
			}
		}
		if full {
			out[i] = k.tails[i].stat(sc)
		} else {
			out[i] = wilcoxonStat(k.cls, nc, sc, k.n[i], k.total[i], k.totalSq[i])
		}
	}
}

func (k *fKernel) NewScratch() *KernelScratch {
	return &KernelScratch{
		idx: make([]int, k.k),
		cn:  make([]int, k.k),
		cs:  make([]float64, k.k),
		cq:  make([]float64, k.k),
	}
}

func (k *fKernel) Stats(lab []int, out []float64, s *KernelScratch) {
	if s == nil {
		s = k.NewScratch()
	}
	kk := k.k
	cn, cs, cq, ord := s.cn, s.cs, s.cq, s.idx[:kk]
	for i := 0; i < k.m.Rows; i++ {
		if k.flat[i] {
			out[i] = math.NaN()
			continue
		}
		for g := 0; g < kk; g++ {
			cn[g], cs[g], cq[g] = 0, 0, 0
		}
		for j, v := range k.m.Row(i) {
			if v != v {
				continue
			}
			g := lab[j]
			if g < 0 || g >= kk {
				continue
			}
			cn[g]++
			cs[g] += v
			cq[g] += v * v
		}
		out[i] = fStat(cn, cs, cq, ord, kk)
	}
}

func (k *pairTKernel) NewScratch() *KernelScratch {
	return &KernelScratch{sgn: make([]float64, k.pairs)}
}

func (k *pairTKernel) Stats(lab []int, out []float64, s *KernelScratch) {
	if s == nil {
		s = k.NewScratch()
	}
	sgn := s.sgn
	for j := 0; j < k.pairs; j++ {
		// The difference is (value labelled 1) - (value labelled 0); a
		// pair stored (1,0) flips it.
		if lab[2*j] == 1 {
			sgn[j] = -1
		} else {
			sgn[j] = 1
		}
	}
	for i := 0; i < k.diffs.Rows; i++ {
		var sum float64
		for j, dv := range k.diffs.Row(i) {
			if dv == dv {
				sum += sgn[j] * dv
			}
		}
		out[i] = pairTStat(sum, k.cnt[i], k.sumsq[i])
	}
}

func (k *blockFKernel) NewScratch() *KernelScratch {
	return &KernelScratch{cs: make([]float64, k.k), idx: make([]int, k.k)}
}

func (k *blockFKernel) Stats(lab []int, out []float64, s *KernelScratch) {
	if s == nil {
		s = k.NewScratch()
	}
	kk, blocks := k.k, k.blocks
	treatSum := s.cs
	for i := 0; i < k.m.Rows; i++ {
		used := k.blockUsed[i]
		if used < 2 {
			out[i] = math.NaN()
			continue
		}
		for t := 0; t < kk; t++ {
			treatSum[t] = 0
		}
		row := k.m.Row(i)
		comp := k.complete[i*blocks : (i+1)*blocks]
		for b, ok := range comp {
			if !ok {
				continue
			}
			base := b * kk
			for j := 0; j < kk; j++ {
				treatSum[lab[base+j]] += row[base+j]
			}
		}
		out[i] = blockFStat(treatSum, s.idx[:kk], used, kk, k.grandMean[i], k.ssTotal[i], k.ssBlock[i])
	}
}
