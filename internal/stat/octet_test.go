package stat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sprint/internal/matrix"
)

// TestStatsRowsOctetEdges pins the two-sample kernel's own row octets at
// their edges to the scalar oracle, bit for bit, under every ISA this CPU
// runs: kernels over 16–23 rows (every residue of the row count mod 8, so
// the last octet holds one to eight rows), built in a shuffled order; row
// ranges starting at every residue and ending short of the last row or at
// it; an NA-bearing row and a constant row inside octets, and a missing
// cell in the last row; batches below, at and beyond the four-labelling
// groups; all three stride forms.  The oracle is the kernel that reads the
// caller's matrix in place, so a lane handed an unaligned octet, or an
// octet read from the wrong row, shows here.
func TestStatsRowsOctetEdges(t *testing.T) {
	logISAs(t)
	designs := []struct {
		test Test
		lab  []int
	}{
		{Welch, halfLabels(16)},
		{TEqualVar, twoClassLabels(9, 4)},
	}
	for _, dc := range designs {
		d, err := NewDesign(dc.test, dc.lab)
		if err != nil {
			t.Fatal(err)
		}
		for rows := 16; rows < 24; rows++ {
			t.Run(fmt.Sprintf("%v-%d/rows=%d", dc.test, d.N, rows), func(t *testing.T) {
				m := benchMatrix(rows, d.N, uint64(rows))
				m.Row(3)[2] = math.NaN()
				for j := range m.Row(10) {
					m.Row(10)[j] = 2.5
				}
				m.Row(rows - 1)[d.N-1] = math.NaN()
				order := identity(rows)
				r := lcg(uint64(rows) * 7)
				r.shuffle(order)
				kk, err := NewKernel(d, m, order)
				if err != nil {
					t.Fatal(err)
				}
				k := kk.(*twoSampleKernel)
				oracle := scalar(inPlaceKernel(t, d, m))
				byRow := make([]float64, rows)
				for _, nb := range []int{1, 3, 4, 5, 64} {
					labs := make([]int, nb*d.N)
					lab := append([]int(nil), d.Labels...)
					want := matrix.New(nb, rows) // by kernel row
					for p := 0; p < nb; p++ {
						copy(labs[p*d.N:], lab)
						oracle.Stats(lab, byRow, nil)
						for j, src := range order {
							want.Row(p)[j] = byRow[src]
						}
						r.shuffle(lab)
					}
					for isa := ISAGeneric; isa <= bestISA(); isa++ {
						k.isa = isa
						s := &BatchScratch{}
						k.OpenBatch(labs, nb, s)
						for _, sf := range strideForms {
							for lo := 0; lo < 9; lo++ {
								for _, hi := range []int{rows - 3, rows} {
									ps, rs := sf.ps(nb, hi-lo), sf.rs(nb, hi-lo)
									out := make([]float64, nb*ps+(hi-lo)*rs)
									k.StatsRows(lo, hi, out, ps, rs, s)
									for p := 0; p < nb; p++ {
										for i := lo; i < hi; i++ {
											got, w := out[p*ps+(i-lo)*rs], want.At(p, i)
											if math.Float64bits(got) != math.Float64bits(w) {
												t.Fatalf("%v %s nb=%d rows [%d,%d) labelling %d row %d: %v (%#x), oracle %v (%#x)",
													isa, sf.name, nb, lo, hi, p, i, got, math.Float64bits(got), w, math.Float64bits(w))
											}
										}
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestStatsRowsZeroAllocs: a two-sample kernel's StatsRows at a batch of
// 64 allocates nothing once its scratch has grown, under every ISA this
// CPU runs — the lanes' accumulators included.  A job worker reuses one
// scratch for its whole life and relies on it.
func TestStatsRowsZeroAllocs(t *testing.T) {
	logISAs(t)
	d, err := NewDesign(Welch, halfLabels(16))
	if err != nil {
		t.Fatal(err)
	}
	const rows, nb = 150, 64
	m := benchMatrix(rows, d.N, 9)
	k := mustKernel(t, d, m).(*twoSampleKernel)
	labs := make([]int, nb*d.N)
	lab := append([]int(nil), d.Labels...)
	r := lcg(5)
	for p := 0; p < nb; p++ {
		copy(labs[p*d.N:], lab)
		r.shuffle(lab)
	}
	out := make([]float64, nb*rows)
	for isa := ISAGeneric; isa <= bestISA(); isa++ {
		k.isa = isa
		s := k.NewBatchScratch(nb)
		run := func() {
			k.OpenBatch(labs, nb, s)
			k.StatsRows(3, rows, out, 1, nb, s)
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: StatsRows allocates %.1f objects per call in steady state, want 0", isa, allocs)
		}
	}
}

// TestReorderKernelReusesMoments: the run kernel ReorderKernel builds
// from the in-place kernel holds, bit for bit, what NewKernel builds from
// the matrix in the same order — counts, sums, sums of squares, constant
// flags and row octets — and its moments are those of the reordered rows
// computed afresh, for Welch and the pooled t, with an NA row (and an
// all-NA one) and constant rows among them.
func TestReorderKernelReusesMoments(t *testing.T) {
	for _, dc := range []struct {
		test Test
		lab  []int
	}{
		{Welch, halfLabels(16)},
		{TEqualVar, twoClassLabels(9, 4)},
	} {
		d, err := NewDesign(dc.test, dc.lab)
		if err != nil {
			t.Fatal(err)
		}
		const rows = 21
		m := benchMatrix(rows, d.N, 5)
		m.Row(3)[2] = math.NaN()
		for j := range m.Row(7) {
			m.Row(7)[j] = math.NaN()
		}
		for j := range m.Row(10) {
			m.Row(10)[j] = 2.5
		}
		m.Row(12)[0] = math.NaN()
		for j := 1; j < d.N; j++ {
			m.Row(12)[j] = -1
		}
		order := identity(rows)
		r := lcg(11)
		r.shuffle(order)

		inPlace, err := NewKernel(d, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := ReorderKernel(inPlace, d, m, order)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewKernel(d, m, order)
		if err != nil {
			t.Fatal(err)
		}
		got, want := reused.(*twoSampleKernel), fresh.(*twoSampleKernel)
		n, sum, sumsq, flat := rowMoments(rowSource{m: m, order: order}.rowMajor())
		for j := 0; j < rows; j++ {
			for _, w := range []*twoSampleKernel{want, {n: n, sum: sum, sumsq: sumsq, flat: flat}} {
				if got.n[j] != w.n[j] || math.Float64bits(got.sum[j]) != math.Float64bits(w.sum[j]) ||
					math.Float64bits(got.sumsq[j]) != math.Float64bits(w.sumsq[j]) || got.flat[j] != w.flat[j] {
					t.Fatalf("%v row %d (source row %d): reused (%d, %v, %v, %v), want (%d, %v, %v, %v)", dc.test, j, order[j],
						got.n[j], got.sum[j], got.sumsq[j], got.flat[j], w.n[j], w.sum[j], w.sumsq[j], w.flat[j])
				}
			}
		}
		if got.x.rows != want.x.rows || got.x.cols != want.x.cols || got.x.lg != want.x.lg || len(got.x.data) != len(want.x.data) {
			t.Fatalf("%v: reused octets %dx%d lg %d, want %dx%d lg %d", dc.test, got.x.rows, got.x.cols, got.x.lg, want.x.rows, want.x.cols, want.x.lg)
		}
		for i := range got.x.data {
			if math.Float64bits(got.x.data[i]) != math.Float64bits(want.x.data[i]) {
				t.Fatalf("%v: octet cell %d differs", dc.test, i)
			}
		}
		if got.pooled != want.pooled || got.cls != want.cls || got.isa != want.isa {
			t.Fatalf("%v: reused kernel's settings differ", dc.test)
		}
	}
}

// TestReorderKernelReusesWilcoxonState: the Wilcoxon run kernel
// ReorderKernel builds from the in-place kernel holds, bit for bit, what
// NewKernel builds from the matrix in the same order — the integer view's
// cells, gate flags and totals, the row counts, totals and tails, and the
// float rows exactly where the view does not cover every row — when every
// row passes the integer gate (mid-ranks, an NA cell, an all-NA row, a
// constant row), when none does (raw values) and when some do, on more
// rows than one prep block.
func TestReorderKernelReusesWilcoxonState(t *testing.T) {
	const rows = 2*PrepBlock + 21
	for _, lab := range [][]int{halfLabels(16), twoClassLabels(9, 4)} {
		d, err := NewDesign(Wilcoxon, lab)
		if err != nil {
			t.Fatal(err)
		}
		raw := benchMatrix(rows, d.N, 5)
		ranked := raw.Clone()
		for i := 0; i < rows; i++ {
			Ranks(ranked.Row(i), nil)
		}
		ranked.Row(3)[2] = math.NaN()
		for j := range ranked.Row(7) {
			ranked.Row(7)[j] = math.NaN()
			ranked.Row(10)[j] = 2.5
		}
		mixed := ranked.Clone()
		for _, i := range []int{1, PrepBlock, rows - 1} {
			copy(mixed.Row(i), raw.Row(i))
		}
		order := identity(rows)
		r := lcg(11)
		r.shuffle(order)
		for name, m := range map[string]matrix.Matrix{"ranked": ranked, "raw": raw, "mixed": mixed} {
			inPlace, err := NewKernel(d, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ReorderKernel(inPlace, d, m, order)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewKernel(d, m, order)
			if err != nil {
				t.Fatal(err)
			}
			got, want := reused.(*wilcoxonKernel), fresh.(*wilcoxonKernel)
			at := fmt.Sprintf("%v %s", lab, name)
			if (got.ir == nil) != (want.ir == nil) || got.m.Rows != want.m.Rows || got.m.Cols != want.m.Cols || !sameBits(got.m.Data, want.m.Data) {
				t.Fatalf("%s: integer view or float rows differ (nil view %v, want %v)", at, got.ir == nil, want.ir == nil)
			}
			if got.ir != nil && (got.ir.cols != want.ir.cols || got.ir.all != want.ir.all || !slices.Equal(got.ir.data, want.ir.data) ||
				!slices.Equal(got.ir.ok, want.ir.ok) || !slices.Equal(got.ir.sum2, want.ir.sum2)) {
				t.Fatalf("%s: integer view differs", at)
			}
			if !slices.Equal(got.n, want.n) || !sameBits(got.total, want.total) || !sameBits(got.totalSq, want.totalSq) {
				t.Fatalf("%s: row counts or totals differ", at)
			}
			for j := range want.tails {
				g, w := got.tails[j], want.tails[j]
				if g.ok != w.ok || g.neg != w.neg || !sameBits([]float64{g.total, g.mu1, g.sd}, []float64{w.total, w.mu1, w.sd}) {
					t.Fatalf("%s: tail of row %d differs: %+v, want %+v", at, j, g, w)
				}
			}
			if got.cls != want.cls || got.nsel != want.nsel || got.isa != want.isa {
				t.Fatalf("%s: settings differ", at)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
