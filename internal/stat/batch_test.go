package stat

import (
	"math"
	"testing"

	"sprint/internal/matrix"
)

// batchCases extends kernelCases with deliberately nasty designs: an
// unbalanced two-sample split, quantized (tied) values and missing cells.
func batchCases(t *testing.T) []struct {
	name   string
	design *Design
	relab  func(*lcg, []int)
} {
	t.Helper()
	cases := kernelCases(t)
	mk := func(test Test, labels []int) *Design {
		d, err := NewDesign(test, labels)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases = append(cases, struct {
		name   string
		design *Design
		relab  func(*lcg, []int)
	}{"t-unbalanced", mk(Welch, []int{0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}), func(r *lcg, lab []int) { r.shuffle(lab) }})
	return cases
}

// quantize rounds matrix cells to a coarse grid so tied values, tied group
// sums and zero group variances actually occur.
func quantize(m matrix.Matrix) {
	for i, v := range m.Data {
		if v == v {
			m.Data[i] = math.Round(v*4) / 4
		}
	}
}

// TestStatsBatchBitwiseEqualsScalar: for every test, NA setting and batch
// size, StatsBatch must reproduce the scalar oracle's bit patterns exactly
// — not approximately — including NaN placement.
func TestStatsBatchBitwiseEqualsScalar(t *testing.T) {
	for _, tc := range batchCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := tc.design
			for _, withNA := range []bool{false, true} {
				m := testMatrix(11, d.N, 0xfeed^uint64(d.Test), withNA)
				quantize(m)
				if d.NeedsRanks() {
					for i := 0; i < m.Rows; i++ {
						Ranks(m.Row(i), nil)
					}
				}
				k := mustKernel(t, d, m)
				for _, nb := range []int{1, 2, 3, 7, 16, 64} {
					// Draw nb valid labellings, starting from the observed.
					labs := make([]int, nb*d.N)
					lab := append([]int(nil), d.Labels...)
					r := lcg(uint64(nb) * 13)
					for p := 0; p < nb; p++ {
						copy(labs[p*d.N:(p+1)*d.N], lab)
						tc.relab(&r, lab)
					}
					out := matrix.New(nb, m.Rows)
					k.StatsBatch(labs, out, k.NewBatchScratch(nb))
					want := make([]float64, m.Rows)
					oracle := scalar(inPlaceKernel(t, d, m))
					ks := oracle.NewScratch()
					for p := 0; p < nb; p++ {
						oracle.Stats(labs[p*d.N:(p+1)*d.N], want, ks)
						got := out.Row(p)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
								!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
								t.Fatalf("NA=%v nb=%d perm %d row %d: batch %v (bits %x) != scalar %v (bits %x)",
									withNA, nb, p, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestStatsBatchNilScratch: a nil scratch must allocate internally and give
// the same answers as a sized one.
func TestStatsBatchNilScratch(t *testing.T) {
	for _, tc := range batchCases(t) {
		d := tc.design
		m := testMatrix(5, d.N, 99, true)
		if d.NeedsRanks() {
			for i := 0; i < m.Rows; i++ {
				Ranks(m.Row(i), nil)
			}
		}
		bk := mustKernel(t, d, m)
		labs := append(append([]int(nil), d.Labels...), d.Labels...)
		a := matrix.New(2, m.Rows)
		b := matrix.New(2, m.Rows)
		bk.StatsBatch(labs, a, nil)
		bk.StatsBatch(labs, b, bk.NewBatchScratch(2))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] && !(math.IsNaN(a.Data[i]) && math.IsNaN(b.Data[i])) {
				t.Fatalf("%s: nil scratch diverges at %d: %v vs %v", tc.name, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// TestStatsBatchZeroAllocs: once a scratch has been warmed, steady-state
// StatsBatch calls must not allocate — the property the jobs worker path
// relies on to reuse one scratch across its whole lifetime.
func TestStatsBatchZeroAllocs(t *testing.T) {
	for _, tc := range batchCases(t) {
		d := tc.design
		m := testMatrix(32, d.N, 5, true)
		if d.NeedsRanks() {
			for i := 0; i < m.Rows; i++ {
				Ranks(m.Row(i), nil)
			}
		}
		bk := mustKernel(t, d, m)
		const nb = 8
		labs := make([]int, nb*d.N)
		for p := 0; p < nb; p++ {
			copy(labs[p*d.N:(p+1)*d.N], d.Labels)
		}
		out := matrix.New(nb, m.Rows)
		s := bk.NewBatchScratch(nb)
		bk.StatsBatch(labs, out, s) // warm every grow-on-demand field
		allocs := testing.AllocsPerRun(20, func() {
			bk.StatsBatch(labs, out, s)
		})
		if allocs != 0 {
			t.Errorf("%s: StatsBatch allocates %.1f objects per call in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestStatsBatchScratchReusedAcrossKernels: one BatchScratch value must be
// safely reusable across kernels of different tests and batch sizes (the
// per-worker ownership pattern), growing on demand without corruption.
func TestStatsBatchScratchReusedAcrossKernels(t *testing.T) {
	s := &BatchScratch{}
	for _, tc := range batchCases(t) {
		d := tc.design
		m := testMatrix(6, d.N, 21, true)
		if d.NeedsRanks() {
			for i := 0; i < m.Rows; i++ {
				Ranks(m.Row(i), nil)
			}
		}
		bk := mustKernel(t, d, m)
		for _, nb := range []int{4, 1, 9} {
			labs := make([]int, nb*d.N)
			lab := append([]int(nil), d.Labels...)
			r := lcg(77)
			for p := 0; p < nb; p++ {
				copy(labs[p*d.N:(p+1)*d.N], lab)
				tc.relab(&r, lab)
			}
			got := matrix.New(nb, m.Rows)
			bk.StatsBatch(labs, got, s) // shared, reused scratch
			fresh := matrix.New(nb, m.Rows)
			bk.StatsBatch(labs, fresh, bk.NewBatchScratch(nb))
			for i := range got.Data {
				if got.Data[i] != fresh.Data[i] && !(math.IsNaN(got.Data[i]) && math.IsNaN(fresh.Data[i])) {
					t.Fatalf("%s nb=%d: reused scratch diverges at %d", tc.name, nb, i)
				}
			}
		}
	}
}

// mustKernel builds the kernel as the engine runs it: over its own copy
// of m's rows (row octets for the two-sample t), here in m's order.
func mustKernel(t *testing.T, d *Design, m matrix.Matrix) BatchKernel {
	t.Helper()
	k, err := NewKernel(d, m, identity(m.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// inPlaceKernel builds the kernel that reads m in place, as a prep's
// observed-statistics pass does.  Its scalar loop is the oracle the
// kernel-owned layouts are held to: it reads m's rows directly.
func inPlaceKernel(t *testing.T, d *Design, m matrix.Matrix) BatchKernel {
	t.Helper()
	k, err := NewKernel(d, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// identity returns the order 0, 1, …, n−1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
