package stat

import (
	"encoding/binary"
	"math"
	"testing"

	"sprint/internal/matrix"
)

// tsQuadGo is tsQuad in Go, the statement the assembly is pinned to: four
// lanes, each the scalar chain over the quad buffer (the stored square is
// what the chain adds) and the scalar tsTail.stat.
func tsQuadGo(v8 []float64, sel8 []int32, L, groups int, t *tsTail, S, Q *[4]float64, sign, out []float64, ps, rs int) {
	for p := 0; p < 4*groups; p++ {
		for r := 0; r < 4; r++ {
			var sa, qa float64
			for _, o := range sel8[p*L : (p+1)*L] {
				sa += v8[int(o)+r]
				qa += v8[int(o)+4+r]
			}
			out[p*ps+r*rs] = t.stat(sign[p], S[r], Q[r], sa, qa)
		}
	}
}

// strideForms are the (ps, rs) layouts StatsRows is asked for: the engine's
// [position][labelling] block, StatsBatch's permutation-major matrix, and
// one that is neither, so tsQuad's three stores are all read back.
var strideForms = []struct {
	name   string
	ps, rs func(nb, rows int) int
}{
	{"ps=1", func(nb, rows int) int { return 1 }, func(nb, rows int) int { return nb }},
	{"rs=1", func(nb, rows int) int { return rows }, func(nb, rows int) int { return 1 }},
	{"strided", func(nb, rows int) int { return 2*rows + 1 }, func(nb, rows int) int { return 2 }},
}

// tailRows builds rows that reach each branch of tsTail.stat under the
// observed labelling lab (labelling 0 of every batch below) and stay
// NA-free and non-constant, so the fast paths take them.
func tailRows(lab []int) [][]float64 {
	n := len(lab)
	row := func(f func(j int) float64) []float64 {
		x := make([]float64, n)
		for j := range x {
			x[j] = f(j)
		}
		return x
	}
	return [][]float64{
		// Both groups constant under lab: both moments clamp, den == 0, the
		// canonical NaN.
		row(func(j int) float64 { return float64(1 + lab[j]) }),
		// One group constant at a large value: its residual is rounding
		// noise against q (clamped), the other group's is not.
		row(func(j int) float64 {
			if lab[j] == 0 {
				return 1e10
			}
			return float64(j % 3)
		}),
		// {0, 1e10} and three-valued rows: ties, exact cancellations.
		row(func(j int) float64 { return 1e10 * float64(j%2) }),
		row(func(j int) float64 { return float64(j%3) - 1 }),
		// Squares overflow: q = +Inf, Q − qa = Inf − Inf.
		row(func(j int) float64 { return 1e200 * float64(1+j%5) }),
		// Sums overflow too.
		row(func(j int) float64 { return math.MaxFloat64 / float64(1+j%2) }),
		// Infinite cells, one sign and both (S itself is then NaN).
		row(func(j int) float64 { return []float64{1, math.Inf(1), 2, 3}[j%4] }),
		row(func(j int) float64 { return []float64{math.Inf(-1), math.Inf(1), 2}[j%3] }),
		// Squares subnormal, and squares underflowing to zero.
		row(func(j int) float64 { return 1e-155 * float64(1+j%4) }),
		row(func(j int) float64 { return 1e-170 * float64(1+j%4) }),
		row(func(j int) float64 { return 5e-324 * float64(j%3) }),
		// Signed zeros: −0 cells, sums that cancel to +0, ±0 statistics.
		row(func(j int) float64 {
			switch j {
			case 0:
				return 3
			case n - 1:
				return -3
			}
			return math.Copysign(0, -1)
		}),
	}
}

// TestStatsBatchISASweep pins the two-sample t batch kernel to the scalar
// oracle bit for bit — NaN payloads included — under every ISA this CPU
// runs: Welch and pooled, balanced and unbalanced designs, both stride
// forms the callers use and a third, batch sizes around the four-labelling
// groups, row ranges that start mid-quad and leave 0–3 rows over, an
// NA-bearing and a constant row breaking the quads, and rows built to
// reach each branch of the tail.  Under avx2 this is what ties tsQuad's
// assembly tail to tsTail.stat.
func TestStatsBatchISASweep(t *testing.T) {
	designs := []struct {
		name string
		lab  []int
	}{
		{"balanced-8", halfLabels(8)},
		{"unbalanced-13", twoClassLabels(9, 4)},
		{"balanced-16", halfLabels(16)},
		{"unbalanced-76", twoClassLabels(30, 46)},
		{"balanced-76", halfLabels(76)},
	}
	for _, test := range []Test{Welch, TEqualVar} {
		for _, dc := range designs {
			d, err := NewDesign(test, dc.lab)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(test.String()+"/"+dc.name, func(t *testing.T) {
				special := tailRows(d.Labels)
				m := benchMatrix(len(special)+15, d.N, 3)
				for i, x := range special {
					copy(m.Row(i), x)
				}
				na, flat := len(special)+5, len(special)+10
				m.Row(na)[2] = math.NaN()
				for j := range m.Row(flat) {
					m.Row(flat)[j] = 4.5
				}
				k := mustKernel(t, d, m).(*twoSampleKernel)
				ranges := [][2]int{{0, m.Rows}, {1, m.Rows - 1}, {2, m.Rows}, {3, m.Rows - 2}, {5, 9}, {na - 2, flat + 3}}
				for _, nb := range []int{1, 3, 4, 5, 8, 63, 64, 65} {
					labs := make([]int, nb*d.N)
					lab := append([]int(nil), d.Labels...)
					r := lcg(uint64(nb) * 29)
					want := matrix.New(nb, m.Rows)
					for p := 0; p < nb; p++ {
						copy(labs[p*d.N:], lab)
						k.Stats(lab, want.Row(p), nil)
						r.shuffle(lab)
					}
					for isa := ISAGeneric; isa <= bestISA(); isa++ {
						k.isa = isa
						s := k.NewBatchScratch(nb)
						k.OpenBatch(labs, nb, s)
						for _, sf := range strideForms {
							for _, rg := range ranges {
								lo, hi := rg[0], rg[1]
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
			})
		}
	}
}

// FuzzTSQuad pins the AVX2 routine to tsQuadGo on arbitrary non-NaN bit
// patterns (an NA-free quad is its precondition; infinities, subnormals
// and signed zeros are not excluded) under arbitrary selected-column
// lists — repeated and unordered ones too — comparing results by their
// bits in each of the three store forms.
func FuzzTSQuad(f *testing.F) {
	if bestISA() < ISAAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals)*4)
		for rep := 0; rep < 4; rep++ {
			for _, v := range vals {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)+uint64(rep))
			}
		}
		return b
	}
	f.Add(seed(1, 2.5, -3, 0.125, 7, -7, 1e3, 2), uint8(4), false, uint8(0))
	f.Add(seed(1e200, -1e200, 1e-160, 1e-170, 5e-324, 0, math.MaxFloat64, 3), uint8(3), true, uint8(1))
	f.Add(seed(math.Inf(1), 1, math.Inf(-1), 2, math.Copysign(0, -1), 0, 4, 4), uint8(5), false, uint8(2))
	f.Add(seed(2, 2, 2, 2, 1e10, 1e10, 1e10, 1e10), uint8(4), true, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nsel uint8, pooled bool, form uint8) {
		cols := min(len(data)/32, 40)
		if cols < 1 {
			return
		}
		// The quad buffer as StatsRows builds it, from an odd offset so the
		// routine is also run off its preferred alignment.
		buf := make([]float64, 8*cols+1)
		v8 := buf[1:]
		var S, Q [4]float64
		for j := 0; j < cols; j++ {
			for r := 0; r < 4; r++ {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(4*j+r):]))
				if x != x {
					x = math.Float64frombits(math.Float64bits(x) &^ (1 << 62)) // a finite pattern
				}
				v8[8*j+r], v8[8*j+4+r] = x, x*x
				S[r] += x
				Q[r] += x * x
			}
		}
		const groups = 2
		L := int(nsel) % (cols + 1)
		s := &BatchScratch{sel: make([]int32, 4*groups*L), sign: make([]float64, 4*groups)}
		for e := range s.sel {
			s.sel[e] = int32(data[(e*7+int(nsel))%len(data)]) % int32(cols)
		}
		for p := range s.sign {
			s.sign[p] = float64(1 - 2*(p%2))
		}
		tail, _ := newTSTail(pooled, max(L, 2), max(cols-L, 2))
		s.openQuad(&tail, cols)
		copy(s.qc[32:36], S[:])
		copy(s.qc[36:40], Q[:])
		sf := strideForms[int(form)%len(strideForms)]
		ps, rs := sf.ps(4*groups, 4), sf.rs(4*groups, 4)
		got := make([]float64, 4*groups*ps+4*rs)
		want := make([]float64, len(got))
		sel8 := append(s.sel8, 0) // addressable when L == 0
		tsQuad(&v8[0], &sel8[0], L, groups, &s.qc, &s.sign[0], &got[0], ps, rs)
		tsQuadGo(v8, sel8, L, groups, &tail, &S, &Q, s.sign, want, ps, rs)
		for o := range got {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%s L=%d cols=%d pooled=%v out[%d]: asm %v (%#x), Go %v (%#x)",
					sf.name, L, cols, pooled, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
			}
		}
	})
}
