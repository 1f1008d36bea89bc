package stat

import (
	"fmt"
	"testing"

	"sprint/internal/matrix"
)

// BenchmarkKernel times the legacy per-row function-pointer path, one
// sub-benchmark per test — the baseline BenchmarkKernelBatch is read
// against.  Each iteration evaluates ONE permutation over the whole matrix
// — the unit of work the maxT main kernel repeats B times — under a
// rotating set of pre-drawn labellings so branch predictors see realistic
// label churn.  The "t" case is the paper's primary workload: 6102 genes ×
// 76 samples, 38 vs 38 (Table I's matrix).  Measured speedups are recorded
// in EXPERIMENTS.md.
func BenchmarkKernel(b *testing.B) {
	cases := []struct {
		name   string
		test   Test
		labels []int
		genes  int
	}{
		{"t", Welch, halfLabels(76), 6102},
		{"t.equalvar", TEqualVar, halfLabels(76), 1024},
		{"wilcoxon", Wilcoxon, halfLabels(76), 1024},
		{"f", F, thirdsLabels(75), 1024},
		{"pairt", PairT, pairLabels(76), 1024},
		{"blockf", BlockF, blockLabels(76, 4), 1024},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			d, err := NewDesign(tc.test, tc.labels)
			if err != nil {
				b.Fatal(err)
			}
			m := benchMatrix(tc.genes, d.N, uint64(tc.test)+1)
			if d.NeedsRanks() {
				scratch := make([]int, d.N)
				for i := 0; i < m.Rows; i++ {
					Ranks(m.Row(i), scratch)
				}
			}
			labs := benchLabellings(d, 32)
			out := make([]float64, m.Rows)

			b.Run("legacy", func(b *testing.B) {
				fn := d.Func()
				rows := m.RowsView()
				b.SetBytes(int64(m.Rows * m.Cols * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lab := labs[i%len(labs)]
					for r, row := range rows {
						out[r] = fn(row, lab)
					}
				}
			})
		})
	}
}

// BenchmarkKernelBatch measures the permutation-batched column-scatter
// path on the same workloads as BenchmarkKernel.  One op is ONE
// permutation (each iteration advances the batch by one slot and flushes
// a StatsBatch whenever a full batch has accumulated), so ns/op is
// directly comparable with BenchmarkKernel's legacy numbers.
func BenchmarkKernelBatch(b *testing.B) {
	cases := []struct {
		name   string
		test   Test
		labels []int
		genes  int
	}{
		{"t", Welch, halfLabels(76), 6102},
		{"f", F, thirdsLabels(75), 1024},
		{"pairt", PairT, pairLabels(76), 1024},
		{"blockf", BlockF, blockLabels(76, 4), 1024},
	}
	for _, tc := range cases {
		tc := tc
		d, err := NewDesign(tc.test, tc.labels)
		if err != nil {
			b.Fatal(err)
		}
		m := benchMatrix(tc.genes, d.N, uint64(tc.test)+1)
		if d.NeedsRanks() {
			scratch := make([]int, d.N)
			for i := 0; i < m.Rows; i++ {
				Ranks(m.Row(i), scratch)
			}
		}
		labs := benchLabellings(d, 32)
		for _, bs := range []int{16, 64, 128} {
			bs := bs
			b.Run(fmt.Sprintf("%s/B=%d", tc.name, bs), func(b *testing.B) {
				bk, err := NewKernel(d, m, identity(m.Rows))
				if err != nil {
					b.Fatal(err)
				}
				flat := make([]int, bs*d.N)
				for p := 0; p < bs; p++ {
					copy(flat[p*d.N:(p+1)*d.N], labs[p%len(labs)])
				}
				out := matrix.New(bs, m.Rows)
				s := bk.NewBatchScratch(bs)
				b.SetBytes(int64(m.Rows * m.Cols * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i += bs {
					nb := bs
					if rem := b.N - i; rem < nb {
						nb = rem
					}
					bk.StatsBatch(flat[:nb*d.N], matrix.Matrix{Data: out.Data[:nb*m.Rows], Rows: nb, Cols: m.Rows}, s)
				}
			})
		}
	}
}

// BenchmarkKernelDelta measures the delta-evaluation path against the
// column-scatter batch path on the nonpara complete-enumeration workload:
// paper-scale gene count (6102) over a 12-vs-12 design — the shape whose
// complete enumeration (C(24,12) ≈ 2.7M labellings) fits the default cap
// and therefore actually runs in revolving-door order in production.  One
// op is ONE permutation, directly comparable with BenchmarkKernelBatch
// and BenchmarkKernel.
func BenchmarkKernelDelta(b *testing.B) {
	const cols = 24
	const bs = 64
	d, err := NewDesign(Wilcoxon, halfLabels(cols))
	if err != nil {
		b.Fatal(err)
	}
	m := benchMatrix(6102, cols, uint64(Wilcoxon)+7)
	scratch := make([]int, cols)
	for i := 0; i < m.Rows; i++ {
		Ranks(m.Row(i), scratch)
	}
	bk, err := NewKernel(d, m, identity(m.Rows))
	if err != nil {
		b.Fatal(err)
	}
	dk := bk.(DeltaKernel)
	if !dk.DeltaOK() {
		b.Fatal("delta path not available on rank data")
	}
	lab0, moves, labs := randomExchangeChain(d, bs, 42)
	out := matrix.New(bs, m.Rows)
	s := bk.NewBatchScratch(bs)
	b.Run("wilcoxon/batch=64", func(b *testing.B) {
		b.SetBytes(int64(m.Rows * m.Cols * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i += bs {
			nb := bs
			if rem := b.N - i; rem < nb {
				nb = rem
			}
			bk.StatsBatch(labs[:nb*cols], matrix.Matrix{Data: out.Data[:nb*m.Rows], Rows: nb, Cols: m.Rows}, s)
		}
	})
	b.Run("wilcoxon/delta=64", func(b *testing.B) {
		b.SetBytes(int64(m.Rows * m.Cols * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i += bs {
			nb := bs
			if rem := b.N - i; rem < nb {
				nb = rem
			}
			dk.StatsDelta(lab0, moves[:nb-1], matrix.Matrix{Data: out.Data[:nb*m.Rows], Rows: nb, Cols: m.Rows}, s)
		}
	})
}

// BenchmarkKernelISA sweeps the two-sample accumulation kernel dispatch —
// generic, AVX2, AVX-512 (where supported) — on the paper's Welch-t 6102×76
// workload at batch 64.  One op is one permutation.  All produce bitwise
// identical statistics (TestStatsBatchISASweep).
func BenchmarkKernelISA(b *testing.B) {
	d, err := NewDesign(Welch, halfLabels(76))
	if err != nil {
		b.Fatal(err)
	}
	m := benchMatrix(6102, d.N, 2)
	labs := benchLabellings(d, 32)
	const bs = 64
	flat := make([]int, bs*d.N)
	for p := 0; p < bs; p++ {
		copy(flat[p*d.N:(p+1)*d.N], labs[p%len(labs)])
	}
	for isa := ISAGeneric; isa <= bestISA(); isa++ {
		isa := isa
		b.Run(isa.String()+"/B=64", func(b *testing.B) {
			k, err := NewKernel(d, m, identity(m.Rows))
			if err != nil {
				b.Fatal(err)
			}
			ts := k.(*twoSampleKernel)
			ts.isa = isa
			out := matrix.New(bs, m.Rows)
			s := ts.NewBatchScratch(bs)
			b.SetBytes(int64(m.Rows * m.Cols * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i += bs {
				nb := bs
				if rem := b.N - i; rem < nb {
					nb = rem
				}
				ts.StatsBatch(flat[:nb*d.N], matrix.Matrix{Data: out.Data[:nb*m.Rows], Rows: nb, Cols: m.Rows}, s)
			}
		})
	}
}

func benchMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	r := lcg(seed)
	for i := range m.Data {
		m.Data[i] = r.float()
	}
	return m
}

// benchLabellings pre-draws n valid labellings for the design, starting
// from the observed one.
func benchLabellings(d *Design, n int) [][]int {
	r := lcg(42)
	labs := make([][]int, n)
	for i := range labs {
		lab := append([]int(nil), d.Labels...)
		switch d.Test {
		case PairT:
			for j := 0; j < d.Pairs; j++ {
				if r.next()%2 == 1 {
					lab[2*j], lab[2*j+1] = lab[2*j+1], lab[2*j]
				}
			}
		case BlockF:
			for bl := 0; bl < d.Blocks; bl++ {
				seg := lab[bl*d.BlockSize : (bl+1)*d.BlockSize]
				r.shuffle(seg)
			}
		default:
			r.shuffle(lab)
		}
		labs[i] = lab
	}
	return labs
}

func halfLabels(n int) []int {
	lab := make([]int, n)
	for i := n / 2; i < n; i++ {
		lab[i] = 1
	}
	return lab
}

func thirdsLabels(n int) []int {
	lab := make([]int, n)
	for i := range lab {
		lab[i] = i * 3 / n
	}
	return lab
}

func pairLabels(n int) []int {
	lab := make([]int, n)
	for i := 1; i < n; i += 2 {
		lab[i] = 1
	}
	return lab
}

func blockLabels(n, k int) []int {
	lab := make([]int, n)
	for i := range lab {
		lab[i] = i % k
	}
	return lab
}
