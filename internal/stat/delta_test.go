package stat

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/matrix"
)

// deltaTestMatrix builds a rows×cols matrix of mid-ranks with ties and,
// when withNA, missing cells — the data shape the delta path exists for.
func deltaTestMatrix(rows, cols int, withNA bool, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	r := lcg(seed)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			// Quantized values force ties; NaN holes force the NA paths.
			row[j] = float64(r.next() % 13)
			if withNA && r.next()%11 == 0 {
				row[j] = math.NaN()
			}
		}
		Ranks(row, nil)
	}
	return m
}

// randomExchangeChain draws a start labelling and a chain of valid
// single-element class-1 exchanges for the design, returning the start,
// the moves, and the materialised labelling batch.
func randomExchangeChain(d *Design, nb int, seed uint64) (lab0 []int, moves []Exchange, labs []int) {
	r := lcg(seed)
	lab0 = append([]int(nil), d.Labels...)
	r.shuffle(lab0)
	cur := append([]int(nil), lab0...)
	labs = make([]int, nb*d.N)
	copy(labs[:d.N], cur)
	moves = make([]Exchange, nb-1)
	for p := 1; p < nb; p++ {
		// Pick one class-1 column to leave and one class-0 column to enter.
		var out, in int
		for {
			out = int(r.next() % uint64(d.N))
			if cur[out] == 1 {
				break
			}
		}
		for {
			in = int(r.next() % uint64(d.N))
			if cur[in] == 0 {
				break
			}
		}
		cur[out], cur[in] = 0, 1
		moves[p-1] = Exchange{Out: int32(out), In: int32(in)}
		copy(labs[p*d.N:(p+1)*d.N], cur)
	}
	return lab0, moves, labs
}

// TestStatsDeltaBitwise pins what the engine relies on under a revolving-
// door order: StatsDelta over a move chain is bitwise identical to
// StatsBatch over the materialised labellings and to the scalar oracle — with ties, with and without NA holes, balanced and unbalanced —
// also when the chain is evaluated in ragged row ranges and row-major, and
// under every ISA this CPU runs.  The
// t kernels have no delta path; their cases pin the path the engine then
// takes, StatsBatch over the materialised chain against the oracle.
func TestStatsDeltaBitwise(t *testing.T) {
	designs := []struct {
		name   string
		labels []int
	}{
		{"balanced", halfLabels(12)},
		{"unbalanced-small1", append(make([]int, 8), 1, 1, 1)},
		{"unbalanced-small0", append([]int{0, 0, 0}, func() []int {
			l := make([]int, 8)
			for i := range l {
				l[i] = 1
			}
			return l
		}()...)},
	}
	tests := []Test{Welch, TEqualVar, Wilcoxon}
	for _, test := range tests {
		for _, dz := range designs {
			for _, withNA := range []bool{false, true} {
				name := fmt.Sprintf("%v/%s/na=%v", test, dz.name, withNA)
				t.Run(name, func(t *testing.T) {
					d, err := NewDesign(test, dz.labels)
					if err != nil {
						t.Fatal(err)
					}
					m := deltaTestMatrix(40, d.N, withNA, uint64(test)*7+3)
					k := mustKernel(t, d, m)
					const nb = 17
					lab0, moves, labs := randomExchangeChain(d, nb, 99)
					outBatch := matrix.New(nb, m.Rows)
					k.StatsBatch(labs, outBatch, nil)
					z := make([]float64, m.Rows)
					for p := 0; p < nb; p++ {
						scalar(k).Stats(labs[p*d.N:(p+1)*d.N], z, nil)
						for i, v := range z {
							if math.Float64bits(v) != math.Float64bits(outBatch.Row(p)[i]) {
								t.Fatalf("perm %d row %d: scalar %v, batch %v", p, i, v, outBatch.Row(p)[i])
							}
						}
					}
					dk, ok := k.(DeltaKernel)
					if ok != (test == Wilcoxon) {
						t.Fatalf("%T implements DeltaKernel: %v", k, ok)
					}
					if !ok {
						return
					}
					if !dk.DeltaOK() {
						t.Fatal("wilcoxon DeltaOK = false on rank data")
					}
					for isa := ISAGeneric; isa <= bestISA(); isa++ {
						k.(*wilcoxonKernel).isa = isa
						outDelta := matrix.New(nb, m.Rows)
						dk.StatsDelta(lab0, moves, outDelta, nil)
						// The same chain in ragged row ranges, row-major with a
						// padded row stride, as the engine's block walk asks.
						const rs = nb + 3
						blocks := make([]float64, m.Rows*rs)
						s := &BatchScratch{}
						dk.OpenDelta(lab0, moves, s)
						for lo := m.Rows; lo > 0; {
							hi := lo
							lo = max(hi-7, 0)
							dk.DeltaRows(lo, hi, blocks[lo*rs:], 1, rs, s)
						}
						for p := 0; p < nb; p++ {
							for i := 0; i < m.Rows; i++ {
								a, b, c := outDelta.Row(p)[i], outBatch.Row(p)[i], blocks[i*rs+p]
								if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(c) != math.Float64bits(b) {
									t.Fatalf("%v perm %d row %d: delta %v, in ranges %v, batch %v", isa, p, i, a, c, b)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestIntRankBitwiseVsFloat asserts the integer rank fast path produces
// exactly the float accumulation's bits: the same kernel evaluated with
// its integer view disabled must agree bit for bit, across ties, NA holes
// and unbalanced designs.  Only the Wilcoxon kernel has an integer view;
// the t cases run the same comparison between two float kernels' oracle
// and batch paths on rank data.
func TestIntRankBitwiseVsFloat(t *testing.T) {
	for _, test := range []Test{Wilcoxon, Welch, TEqualVar} {
		for _, withNA := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/na=%v", test, withNA), func(t *testing.T) {
				labels := append(make([]int, 7), 1, 1, 1, 1, 1)
				d, err := NewDesign(test, labels)
				if err != nil {
					t.Fatal(err)
				}
				m := deltaTestMatrix(30, d.N, withNA, 5)
				// The float path runs on the kernel that reads m in place: a
				// kernel owning its rows keeps no float copy of rank data.
				kInt, kFloat := mustKernel(t, d, m), inPlaceKernel(t, d, m)
				if k, ok := kFloat.(*wilcoxonKernel); ok {
					if k.ir == nil {
						t.Fatal("rank rows should be integer-representable")
					}
					k.ir = nil
				}
				const nb = 9
				_, _, labs := randomExchangeChain(d, nb, 31)
				zi := make([]float64, m.Rows)
				zf := make([]float64, m.Rows)
				oi := matrix.New(nb, m.Rows)
				kInt.StatsBatch(labs, oi, nil)
				for p := 0; p < nb; p++ {
					lab := labs[p*d.N : (p+1)*d.N]
					scalar(kInt).Stats(lab, zi, nil)
					scalar(kFloat).Stats(lab, zf, nil)
					for i := range zi {
						if math.Float64bits(zi[i]) != math.Float64bits(zf[i]) {
							t.Fatalf("perm %d row %d: int %v, float %v", p, i, zi[i], zf[i])
						}
						if math.Float64bits(oi.Row(p)[i]) != math.Float64bits(zf[i]) {
							t.Fatalf("perm %d row %d: int batch %v, float %v", p, i, oi.Row(p)[i], zf[i])
						}
					}
				}
				// Batch paths agree too.
				of := matrix.New(nb, m.Rows)
				kFloat.StatsBatch(labs, of, nil)
				for o := range oi.Data {
					if math.Float64bits(oi.Data[o]) != math.Float64bits(of.Data[o]) {
						t.Fatalf("batch cell %d: int %v, float %v", o, oi.Data[o], of.Data[o])
					}
				}
			})
		}
	}
}

// TestIntRankGate pins the representability gate: continuous data falls
// back to the float path (no integer view), and the Wilcoxon kernel then
// declines delta evaluation.
func TestIntRankGate(t *testing.T) {
	m := matrix.New(4, 8)
	r := lcg(7)
	for o := range m.Data {
		m.Data[o] = r.float() // continuous: not half-integers
	}
	if ir := newIntRank(rowSource{m: m}); ir != nil {
		t.Fatalf("continuous data built an integer view: %+v", ir.ok)
	}
	d, err := NewDesign(Wilcoxon, halfLabels(8))
	if err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, d, m)
	if k.(DeltaKernel).DeltaOK() {
		t.Fatal("DeltaOK on continuous data")
	}
	// Zeros and negatives are rejected (0 is the NA sentinel).
	m2 := matrix.New(1, 8)
	if ir := newIntRank(rowSource{m: m2}); ir != nil {
		t.Fatal("all-zero row accepted by the integer gate")
	}
	// Mixed: one rank row, one continuous row — per-row flags, all=false.
	m3 := matrix.New(2, 8)
	copy(m3.Row(0), []float64{1, 2, 3, 4, 5, 6, 7, 8})
	copy(m3.Row(1), []float64{0.25, 1, 2, 3, 4, 5, 6, 7})
	ir := newIntRank(rowSource{m: m3})
	if ir == nil || !ir.ok[0] || ir.ok[1] || ir.all {
		t.Fatalf("mixed matrix gate wrong: %+v", ir)
	}
}

// TestOpenDeltaRejectsOutOfRangeMove: both delta lanes load a move's
// columns without bounds checks, so OpenDelta refuses a move outside the
// matrix before any lane runs.
func TestOpenDeltaRejectsOutOfRangeMove(t *testing.T) {
	d, err := NewDesign(Wilcoxon, halfLabels(8))
	if err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, d, deltaTestMatrix(4, d.N, false, 3)).(DeltaKernel)
	for _, mv := range []Exchange{{Out: 8, In: 0}, {Out: 0, In: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("move %+v over %d columns accepted", mv, d.N)
				}
			}()
			k.OpenDelta(d.Labels, []Exchange{mv}, &BatchScratch{})
		}()
	}
}
