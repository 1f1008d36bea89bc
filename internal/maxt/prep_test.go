package maxt

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// stableStepDown is the step-down order by the comparator the prep sorted
// with before its keyed sort: a stable sort of the row indices by
// decreasing Obs, cmp.Compare holding NaN below every number and ±0 equal.
func stableStepDown(obs []float64) []int {
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(ra, rb int) int { return cmp.Compare(obs[rb], obs[ra]) })
	return order
}

// FuzzStepDownOrder: the keyed radix sort of rankRows gives the order of a
// stable sort under the comparator it replaced, on arbitrary float64 bits —
// NaN payloads of either sign, ±0, ±Inf, subnormals — under every side, at
// 1–300 rows.  Rows repeat the decoded values cyclically, so long ties
// occur; Valid and the observed values by position follow the order.
func FuzzStepDownOrder(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(bits(0, negz, nan, 1, -1, 2.5, -2.5, 7), uint16(300))
	f.Add(bits(inf, -inf, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64), uint16(40))
	f.Add(bits(math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001), 3), uint16(9))
	f.Add(bits(1.5), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16) {
		vals := make([]float64, 0, len(data)/8)
		for o := 0; o+8 <= len(data) && len(vals) < 300; o += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[o:])))
		}
		if len(vals) == 0 {
			return
		}
		st := make([]float64, 1+int(rows)%300)
		for i := range st {
			st[i] = vals[i%len(vals)]
		}
		for _, side := range []Side{Abs, Upper, Lower} {
			p := &Prep{Side: side, Stat: st, Obs: make([]float64, len(st))}
			p.rankRows()
			want := stableStepDown(p.Obs)
			valid := 0
			for _, v := range p.Obs {
				if !math.IsNaN(v) {
					valid++
				}
			}
			if !slices.Equal(p.Order, want) || p.Valid != valid {
				t.Fatalf("%v: order %v valid %d, want %v valid %d (obs %v)", side, p.Order, p.Valid, want, valid, p.Obs)
			}
			for j, r := range p.Order[:p.Valid] {
				if math.Float64bits(p.pobs[j]) != math.Float64bits(p.Obs[r]) {
					t.Fatalf("%v: pobs[%d] = %v, want Obs[%d] = %v", side, j, p.pobs[j], r, p.Obs[r])
				}
			}
		}
	})
}

// prepMatrix builds rows × cols with a row of every kind the prep treats
// apart: NaN cells, the multtest NA code as a value, constant rows, all-NaN
// rows, coarse ties and ±0, among continuous rows.  A shorter matrix of the
// same seed is a prefix of a longer one.
func prepMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 11
	}
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float64(next())/(1<<53)*8 - 4
		}
		switch i % 9 {
		case 1:
			row[next()%uint64(cols)] = math.NaN()
		case 2:
			row[next()%uint64(cols)] = -93074815 // the multtest NA code, unscrubbed
		case 3:
			for j := range row {
				row[j] = 2.5
			}
		case 4:
			for j := range row {
				row[j] = math.NaN()
			}
		case 5:
			for j := range row {
				row[j] = float64(next()%4) / 2
			}
		case 6:
			row[0], row[cols-1] = 0, math.Copysign(0, -1)
		}
	}
	return m
}

// TestPrepAnyCoreCount: NewPrepMatrix builds bit for bit the same prep at
// GOMAXPROCS 1, 2 and 3, for every test, with and without nonpara, at row
// counts on either side of the octet, the lane block and PrepBlock.  Each
// build is held to a row-by-row reference — every row prepared alone, so
// no block boundary exists — on Stat and Obs, and on the kernel's
// statistics under a batch of labellings, read at the row's step-down
// position; Order and Valid are held to a stable sort of that Obs.  A
// boundary that drops, repeats or misaligns a row therefore fails even
// where it is the same at every core count.
func TestPrepAnyCoreCount(t *testing.T) {
	counts := []int{1, 3, 4, 5, 7, 8, 9, 127, 128, 129, 513, 6102}
	maxRows := counts[len(counts)-1]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nb = 8 // the lanes take labellings in fours
	for ci, tc := range batchDesigns(t) {
		for _, nonpara := range []bool{false, true} {
			side := []Side{Abs, Upper, Lower}[ci%3]
			name := fmt.Sprintf("%s/nonpara=%v/%v", tc.name, nonpara, side)
			d, err := stat.NewDesign(tc.test, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			full := prepMatrix(maxRows, d.N, 0x5eed^uint64(ci))
			labs := make([]int, nb*d.N)
			perm.NewRandom(d, 7, 1000).Labels(1, nb, labs)

			// The reference: each row prepared as a matrix of its own.
			refStat, refObs := make([]float64, maxRows), make([]float64, maxRows)
			refK := make([]float64, maxRows*nb)
			for i := 0; i < maxRows; i++ {
				one := matrix.Matrix{Data: full.Row(i), Rows: 1, Cols: d.N}
				p, err := NewPrepMatrix(one, d, side, nonpara)
				if err != nil {
					t.Fatal(err)
				}
				refStat[i], refObs[i] = p.Stat[0], p.Obs[0]
				bs := &stat.BatchScratch{}
				p.Kernel.OpenBatch(labs, nb, bs)
				p.Kernel.StatsRows(0, 1, refK[i*nb:(i+1)*nb], 1, nb, bs)
			}
			for _, rows := range counts {
				m := matrix.Matrix{Data: full.Data[:rows*d.N], Rows: rows, Cols: d.N}
				wantOrder := stableStepDown(refObs[:rows])
				wantValid := 0
				for _, v := range refObs[:rows] {
					if !math.IsNaN(v) {
						wantValid++
					}
				}
				for _, procs := range []int{1, 2, 3} {
					runtime.GOMAXPROCS(procs)
					p, err := NewPrepMatrix(m, d, side, nonpara)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s rows=%d GOMAXPROCS=%d", name, rows, procs)
					for i := 0; i < rows; i++ {
						if math.Float64bits(p.Stat[i]) != math.Float64bits(refStat[i]) || math.Float64bits(p.Obs[i]) != math.Float64bits(refObs[i]) {
							t.Fatalf("%s: row %d Stat/Obs %v/%v, alone %v/%v", at, i, p.Stat[i], p.Obs[i], refStat[i], refObs[i])
						}
					}
					if !slices.Equal(p.Order, wantOrder) || p.Valid != wantValid {
						t.Fatalf("%s: order %v valid %d, want %v valid %d", at, p.Order, p.Valid, wantOrder, wantValid)
					}
					out := make([]float64, rows*nb)
					bs := &stat.BatchScratch{}
					p.Kernel.OpenBatch(labs, nb, bs)
					p.Kernel.StatsRows(0, rows, out, 1, nb, bs)
					for j, r := range p.Order {
						for b := 0; b < nb; b++ {
							if got, want := out[j*nb+b], refK[r*nb+b]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: kernel position %d (row %d) labelling %d = %v, alone %v", at, j, r, b, got, want)
							}
						}
					}
				}
			}
		}
	}
}
