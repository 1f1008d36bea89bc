package stat

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"

	"sprint/internal/matrix"
)

// tsLaneGo is tsQuad (w = 4) and tsOct (w = 8) in Go, the statement the
// assembly is pinned to: w lanes, each the scalar chain over the octet
// (the square rounded before it is added) and the scalar tsTail.stat.
func tsLaneGo(w int, oct []float64, sel8 []int32, L, groups int, t *tsTail, S, Q []float64, sign, out []float64, ps, rs int) {
	for p := 0; p < 4*groups; p++ {
		for r := 0; r < w; r++ {
			var sa, qa float64
			for _, o := range sel8[p*L : (p+1)*L] {
				x := oct[int(o)+r]
				sa += x
				qa += float64(x * x)
			}
			out[p*ps+r*rs] = t.stat(sign[p], S[r], Q[r], sa, qa)
		}
	}
}

// strideForm is one (ps, rs) layout of a StatsRows output, as a function
// of the batch size and the rows evaluated.
type strideForm struct {
	name   string
	ps, rs func(nb, rows int) int
}

// strideForms are the (ps, rs) layouts StatsRows is asked for: the engine's
// [position][labelling] block, StatsBatch's permutation-major matrix, and
// one that is neither, so tsQuad's three stores are all read back (tsOct
// takes the first two).
var strideForms = []strideForm{
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
// groups, row ranges that start mid-octet and leave 0–7 rows over, an
// NA-bearing and a constant row breaking the lanes, and rows built to
// reach each branch of the tail, twice over so that every one of them
// sits in a high lane (4–7) of an aligned octet.  Under avx2 and avx512
// this is what ties tsQuad's and tsOct's assembly tails to tsTail.stat.
func TestStatsBatchISASweep(t *testing.T) {
	logISAs(t)
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
				// Two copies, the second 12 rows on: rows 0–11 and 12–23
				// put tail rows 4–7, then 0–3 and 8–11, in lanes 4–7 of the
				// octets from row 0.
				special := tailRows(d.Labels)
				special = append(special, special...)
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
				oracle := scalar(inPlaceKernel(t, d, m))
				ranges := [][2]int{{0, m.Rows}, {1, m.Rows - 1}, {2, m.Rows}, {3, m.Rows - 2}, {4, m.Rows - 5}, {5, 9}, {5, 17}, {na - 2, flat + 3}}
				for _, nb := range []int{1, 3, 4, 5, 8, 63, 64, 65} {
					labs := make([]int, nb*d.N)
					lab := append([]int(nil), d.Labels...)
					r := lcg(uint64(nb) * 29)
					want := matrix.New(nb, m.Rows)
					for p := 0; p < nb; p++ {
						copy(labs[p*d.N:], lab)
						oracle.Stats(lab, want.Row(p), nil)
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

// logISAs names the ISAs a sweep covers on this CPU and the ones it
// cannot, so a runner without AVX-512 shows what it skipped.
func logISAs(t *testing.T) {
	t.Helper()
	t.Logf("ISAs covered: %v", SupportedISAs())
	if missing := isaNames[bestISA()+1:]; len(missing) > 0 {
		t.Logf("ISAs not covered (this CPU cannot run them): %v", missing)
	}
}

// FuzzTSQuad pins the AVX2 routine to tsLaneGo on arbitrary non-NaN bit
// patterns (an NA-free quad is its precondition; infinities, subnormals
// and signed zeros are not excluded) under arbitrary selected-column
// lists — repeated and unordered ones too — and 1–16 groups of four
// labellings, reading either half of an octet and comparing results by
// their bits in each of the three store forms.
func FuzzTSQuad(f *testing.F) {
	fuzzTSLane(f, 4, ISAAVX2, strideForms, func(oct []float64, sel8 []int32, L, groups int, qc *[48]float64, sign, out []float64, ps, rs, pf int) {
		acc := make([]float64, 32*groups)
		tsQuad(&oct[0], &sel8[0], L, groups, qc, &sign[0], &acc[0], &out[0], ps, rs)
	})
}

// FuzzTSOct is FuzzTSQuad for the AVX-512 octet routine, in the two store
// forms it takes.  With up to 16 groups the accumulator buffer carries up
// to 64 labellings' sums between the routine's two passes, so a tail that
// read another group's sums fails here; the prefetch span is fuzzed too.
func FuzzTSOct(f *testing.F) {
	fuzzTSLane(f, 8, ISAAVX512, strideForms[:2], func(oct []float64, sel8 []int32, L, groups int, qc *[48]float64, sign, out []float64, ps, rs, pf int) {
		buf := make([]float64, accLen(4*groups))
		acc := buf[-(uintptr(unsafe.Pointer(&buf[0]))>>3)&7:]
		tsOct(&oct[0], &sel8[0], L, groups, qc, &sign[0], &acc[0], &out[0], ps, rs, &oct[len(oct)-1], pf)
	})
}

// fuzzTSLane runs one lane against tsLaneGo.  The octet is laid out as
// rowGroups lays it, from an odd offset so the routine is also run off its
// preferred alignment; a quad reads the half the input picks.
func fuzzTSLane(f *testing.F, w int, isa KernelISA, forms []strideForm, lane func(oct []float64, sel8 []int32, L, groups int, qc *[48]float64, sign, out []float64, ps, rs, pf int)) {
	if bestISA() < isa {
		f.Skipf("no %v on this CPU (have %v)", isa, SupportedISAs())
	}
	f.Logf("covering the %d-row lane under %v", w, isa)
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals)*8)
		for rep := 0; rep < 8; rep++ {
			for _, v := range vals {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)+uint64(rep))
			}
		}
		return b
	}
	f.Add(seed(1, 2.5, -3, 0.125, 7, -7, 1e3, 2), uint8(4), false, uint8(0), uint8(0))
	f.Add(seed(1e200, -1e200, 1e-160, 1e-170, 5e-324, 0, math.MaxFloat64, 3), uint8(3), true, uint8(1), uint8(1))
	f.Add(seed(math.Inf(1), 1, math.Inf(-1), 2, math.Copysign(0, -1), 0, 4, 4), uint8(5), false, uint8(2), uint8(15))
	f.Add(seed(2, 2, 2, 2, 1e10, 1e10, 1e10, 1e10), uint8(4), true, uint8(0), uint8(0x37))
	f.Fuzz(func(t *testing.T, data []byte, nsel uint8, pooled bool, form, shape uint8) {
		cols := min(len(data)/64, 40)
		if cols < 1 {
			return
		}
		groups := 1 + int(shape)%16
		half := 4 * int(shape>>4&1) // the quad's rows in the octet
		if w == 8 {
			half = 0
		}
		buf := make([]float64, 8*cols+1)
		oct := buf[1:]
		S, Q := make([]float64, w), make([]float64, w)
		for j := 0; j < cols; j++ {
			for r := 0; r < 8; r++ {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(8*j+r):]))
				if x != x {
					x = math.Float64frombits(math.Float64bits(x) &^ (1 << 62)) // a finite pattern
				}
				oct[8*j+r] = x
				if l := r - half; l >= 0 && l < w {
					S[l] += x
					Q[l] += float64(x * x)
				}
			}
		}
		L := int(nsel) % (cols + 1)
		sel8 := make([]int32, 4*groups*L+1) // addressable when L == 0
		for e := range sel8 {
			sel8[e] = 8 * (int32(data[(e*7+int(nsel))%len(data)]) % int32(cols))
		}
		sign := make([]float64, 4*groups)
		for p := range sign {
			sign[p] = float64(1 - 2*(p%2))
		}
		tail, _ := newTSTail(pooled, max(L, 2), max(cols-L, 2))
		var qc [48]float64
		for c, v := range [8]float64{tail.fa, tail.fb, tail.da, tail.db, tail.scale, tail.rt, m2Tol, math.NaN()} {
			qc[4*c], qc[4*c+1], qc[4*c+2], qc[4*c+3] = v, v, v, v
		}
		copy(qc[32:], S)
		copy(qc[40:], Q)
		sf := forms[int(form)%len(forms)]
		ps, rs := sf.ps(4*groups, w), sf.rs(4*groups, w)
		got := make([]float64, 4*groups*ps+w*rs)
		want := make([]float64, len(got))
		lane(oct[half:], sel8, L, groups, &qc, sign, got, ps, rs, int(nsel)%8)
		tsLaneGo(w, oct[half:], sel8, L, groups, &tail, S, Q, sign, want, ps, rs)
		for o := range got {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%s L=%d cols=%d groups=%d half=%d pooled=%v out[%d]: asm %v (%#x), Go %v (%#x)",
					sf.name, L, cols, groups, half, pooled, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
			}
		}
	})
}

// wilxQuadGo is wilxQuad in Go, the statement the assembly is pinned to:
// four lanes of int32 sums, wrapping as VPADDD does, and fullLane's tail
// on each.
func wilxQuadGo(q, dq []int32, L, groups int, qc *[48]float64, qs *[8]int32, neg bool, out []float64, ps, rs int) {
	var sum [4]int32
	for _, o := range dq[:L] {
		for r := range sum {
			sum[r] += q[int(o)/4+r]
		}
	}
	mv := dq[L:]
	for p := 0; p < 4*groups; p++ {
		in, outc := int(mv[2*p])/4, int(mv[2*p+1])/4
		for r := range sum {
			sum[r] += q[in+r] - q[outc+r]
			half, mu1, sd, total := qc[r], qc[4+r], qc[8+r], qc[12+r]
			z := (float64(sum[r])*half - mu1) / sd
			if neg {
				z = (total - float64(qs[4+r]-sum[r])*half - mu1) / sd
			}
			out[p*ps+r*rs] = z
		}
	}
	copy(qs[:4], sum[:])
}

// FuzzWilxQuad pins the AVX2 delta routine to wilxQuadGo on arbitrary
// in-gate quads (cells 1…2^20, up to 40 columns, so no sum leaves int32),
// arbitrary start columns and move chains — repeated columns, and moves
// that do not keep a valid labelling, included — and arbitrary non-NaN
// tail constants, comparing results by their bits in each of the three
// store forms, and the written-back sums.
func FuzzWilxQuad(f *testing.F) {
	if bestISA() < ISAAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"), math.Float64bits(8.5), math.Float64bits(2.25), math.Float64bits(68), false, uint8(0))
	f.Add(make([]byte, 300), math.Float64bits(-1e300), math.Float64bits(5e-324), math.Float64bits(math.Inf(1)), true, uint8(1))
	f.Add([]byte{7, 2, 255, 254, 3, 3, 3, 3, 9, 1, 0, 0, 200, 100, 50, 25, 12, 6, 3, 1}, math.Float64bits(0), math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), true, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mu1, sd, total uint64, neg bool, form uint8) {
		cols := min(len(data)/16, 40)
		if cols < 1 {
			return
		}
		q := make([]int32, 4*cols)
		var qs [8]int32
		for c := range q {
			q[c] = 1 + int32(binary.LittleEndian.Uint32(data[4*c:])%(1<<20))
			qs[4+c%4] += q[c]
		}
		L, groups := int(data[0])%(cols+1), int(data[1])%4
		dq := make([]int32, L+8*groups)
		for e := range dq {
			dq[e] = 16 * (int32(data[(7*e+3)%len(data)]) % int32(cols))
		}
		var qc [48]float64
		finite := func(b uint64) float64 {
			x := math.Float64frombits(b)
			if x != x {
				x = math.Float64frombits(b &^ (1 << 62))
			}
			return x
		}
		for r := 0; r < 4; r++ {
			qc[r] = 0.5
			qc[4+r], qc[8+r], qc[12+r] = finite(mu1+uint64(r)), finite(sd+uint64(r)), finite(total+uint64(r))
		}
		sf := strideForms[int(form)%len(strideForms)]
		ps, rs := sf.ps(4*groups, 4), sf.rs(4*groups, 4)
		got := make([]float64, max(4*groups*ps+4*rs, 1)) // addressable when groups == 0
		want := make([]float64, len(got))
		qsGo := qs
		wilxQuad(&q[0], &append(dq, 0)[0], L, groups, &qc, &qs, neg, &got[0], ps, rs)
		wilxQuadGo(q, dq, L, groups, &qc, &qsGo, neg, want, ps, rs)
		if qs != qsGo {
			t.Fatalf("L=%d groups=%d: asm sums %v, Go %v", L, groups, qs[:4], qsGo[:4])
		}
		for o := range got {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%s L=%d groups=%d cols=%d neg=%v out[%d]: asm %v (%#x), Go %v (%#x)",
					sf.name, L, groups, cols, neg, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
			}
		}
	})
}

// TestDeltaRowsISASweep pins the Wilcoxon delta lane to StatsRows over the
// materialised chain bit for bit under every ISA this CPU runs: both
// accumulated classes (balanced and unbalanced designs), chains of 1–65
// labellings around the four-labelling groups, row ranges that start
// mid-quad and leave 0–3 rows over, matrices padded by 0–3 rows to whole
// quads, an NA-bearing row and a constant one (the tail that is never
// computable) breaking quads, a row whose total sits at the int32 gate,
// and all three stride forms.  Under avx2
// this is what ties wilxQuad to fullLane.
func TestDeltaRowsISASweep(t *testing.T) {
	ranked := func(rows, cols int) matrix.Matrix {
		m := deltaTestMatrix(rows, cols, false, uint64(cols))
		m.Row(9)[3] = math.NaN()
		for j := range m.Row(14) {
			m.Row(14)[j] = float64(cols+1) / 2
		}
		return m
	}
	cases := []struct {
		name  string
		lab   []int
		build func(cols int) matrix.Matrix
	}{
		{"balanced-16", halfLabels(16), func(cols int) matrix.Matrix { return ranked(27, cols) }},
		{"unbalanced-small0-13", twoClassLabels(4, 9), func(cols int) matrix.Matrix { return ranked(26, cols) }},
		{"unbalanced-small1-13", twoClassLabels(9, 4), func(cols int) matrix.Matrix { return ranked(25, cols) }},
		{"balanced-8", halfLabels(8), func(cols int) matrix.Matrix { return ranked(24, cols) }},
		// Row 0: 2047 cells 2^19 and one 2^19 − 0.5, so Σ 2v = 2^31 − 1.
		{"int32-gate-2048", halfLabels(maxIntCols), func(cols int) matrix.Matrix {
			m := deltaTestMatrix(6, cols, false, 11)
			for j := range m.Row(0) {
				m.Row(0)[j] = maxScaled / 2
			}
			m.Row(0)[5] -= 0.5
			return m
		}},
	}
	for _, tc := range cases {
		d, err := NewDesign(Wilcoxon, tc.lab)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(d.N)
			k := mustKernel(t, d, m).(*wilcoxonKernel)
			if !k.DeltaOK() {
				t.Fatal("DeltaOK = false")
			}
			if tc.name == "int32-gate-2048" && (k.ir.sum2[0] != math.MaxInt32 || !k.quadLane(0)) {
				t.Fatalf("row 0 total %d, quad lane %v: want the int32 gate's edge, taken", k.ir.sum2[0], k.quadLane(0))
			}
			quads := 0
			for i := 0; i+4 <= m.Rows; i += 4 {
				if k.quadLane(i) {
					quads++
				}
			}
			if quads == 0 {
				t.Fatal("no quad takes wilxQuad")
			}
			ranges := [][2]int{{0, m.Rows}, {1, m.Rows - 1}, {2, m.Rows}, {3, m.Rows - 2}, {5, m.Rows}, {min(8, m.Rows-1), m.Rows}}
			for _, nb := range []int{1, 2, 3, 4, 5, 63, 64, 65} {
				lab0, moves, labs := randomExchangeChain(d, nb, uint64(nb)*13)
				want := matrix.New(nb, m.Rows)
				k.StatsBatch(labs, want, nil)
				for isa := ISAGeneric; isa <= bestISA(); isa++ {
					k.isa = isa
					s := &BatchScratch{}
					k.OpenDelta(lab0, moves, s)
					for _, sf := range strideForms {
						for _, rg := range ranges {
							lo, hi := rg[0], rg[1]
							ps, rs := sf.ps(nb, hi-lo), sf.rs(nb, hi-lo)
							out := make([]float64, nb*ps+(hi-lo)*rs)
							k.DeltaRows(lo, hi, out, ps, rs, s)
							for p := 0; p < nb; p++ {
								for i := lo; i < hi; i++ {
									got, w := out[p*ps+(i-lo)*rs], want.At(p, i)
									if math.Float64bits(got) != math.Float64bits(w) {
										t.Fatalf("%v %s nb=%d rows [%d,%d) labelling %d row %d: delta %v (%#x), StatsRows %v (%#x)",
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

// TestLanesUnderEveryHigherISA: under avx2 and every ISA above it that this
// CPU runs, each SIMD lane still runs — the two-sample routine fills the
// row totals it reads (the last quad's under avx2, the octet's under avx512), and
// the Wilcoxon delta routine its row totals and the byte offsets OpenDelta
// builds for it — so a lane gated on one ISA by equality fails here.
func TestLanesUnderEveryHigherISA(t *testing.T) {
	logISAs(t)
	d, err := NewDesign(Welch, halfLabels(16))
	if err != nil {
		t.Fatal(err)
	}
	ts := mustKernel(t, d, benchMatrix(8, d.N, 5)).(*twoSampleKernel)
	dw, err := NewDesign(Wilcoxon, halfLabels(16))
	if err != nil {
		t.Fatal(err)
	}
	wx := mustKernel(t, dw, deltaTestMatrix(8, dw.N, false, 5)).(*wilcoxonKernel)
	for isa := ISAAVX2; isa <= bestISA(); isa++ {
		ts.isa, wx.isa = isa, isa
		w := 4
		if isa >= ISAAVX512 {
			w = 8
		}
		s := ts.NewBatchScratch(4)
		labs := make([]int, 4*d.N)
		for p := 0; p < 4; p++ {
			copy(labs[p*d.N:], d.Labels)
		}
		ts.OpenBatch(labs, 4, s)
		ts.StatsRows(0, 8, make([]float64, 4*8), 1, 4, s)
		if got, want := s.qc[32:32+w], ts.sum[8-w:]; !slices.Equal(got, want) { // the last lane's rows
			t.Errorf("%v: two-sample lane read row totals %v, want the last %d rows' %v", isa, got, w, want)
		}
		lab0, moves, _ := randomExchangeChain(dw, 4, 3)
		s = &BatchScratch{}
		wx.OpenDelta(lab0, moves, s)
		wx.DeltaRows(0, 8, make([]float64, 4*8), 1, 4, s)
		if len(s.dq) == 0 || s.qs[4] == 0 {
			t.Errorf("%v: the Wilcoxon delta lane did not run (offsets %d, row total %d)", isa, len(s.dq), s.qs[4])
		}
	}
}
