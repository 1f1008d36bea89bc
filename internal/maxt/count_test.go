package maxt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// countPermutation is the three-pass counting routine the engine started
// with, kept verbatim as the differential oracle: it side-transforms one
// permutation's statistics (indexed by original row) in place, then makes a
// raw-count pass over all rows and a step-down pass through Order, adding
// straight into c.
func (p *Prep) countPermutation(z []float64, c *Counts) {
	order, obs := p.Order, p.Obs
	for i, t := range z {
		if math.IsNaN(t) {
			z[i] = math.Inf(-1) // never exceeds, never raises the max
		} else {
			z[i] = p.Side.transform(t)
		}
	}
	// Raw counts: per-row comparison.
	for i := range z {
		if !math.IsNaN(obs[i]) && z[i] >= obs[i] {
			c.Raw[i]++
		}
	}
	// Successive maxima from the least significant valid row upward.
	u := math.Inf(-1)
	for j := p.Valid - 1; j >= 0; j-- {
		r := order[j]
		if z[r] > u {
			u = z[r]
		}
		if u >= obs[r] {
			c.Adj[r]++
		}
	}
	c.B++
}

// oracleProcess is the one-labelling loop over [lo, hi) that feeds the
// oracle counter: every row's statistics from StatsRows at a batch of one,
// carried from the kernel's position order back to rows.  The oracle here
// checks counting, not the statistics (internal/stat pins those).
func oracleProcess(p *Prep, gen perm.Generator, lo, hi int64, c *Counts) {
	lab := make([]int, p.Design.N)
	zp := make([]float64, p.M.Rows)
	z := make([]float64, p.M.Rows)
	s := &stat.BatchScratch{}
	for idx := lo; idx < hi; idx++ {
		gen.Label(idx, lab)
		p.Kernel.OpenBatch(lab, 1, s)
		p.Kernel.StatsRows(0, p.M.Rows, zp, 1, 1, s)
		for j, r := range p.Order {
			z[r] = zp[j]
		}
		p.countPermutation(z, c)
	}
}

// subPrep is the prep Prep.Subset used to build for the sequential engine —
// the rows at step-down positions first..Valid-1 of p as a prep of their
// own, observed statistics copied, kernel rebuilt over the copied rows —
// kept as the oracle of ProcessFrom: starting the range at a position must
// count exactly what dropping the prefix counted.  Sub row i is p's row
// p.Order[first+i].
func subPrep(t testing.TB, p *Prep, first int) *Prep {
	t.Helper()
	n := p.Valid - first
	sub := &Prep{
		Design: p.Design, Side: p.Side, isa: p.isa,
		M:     matrix.Matrix{Data: append([]float64(nil), p.M.Data[first*p.M.Cols:p.Valid*p.M.Cols]...), Rows: n, Cols: p.M.Cols},
		Stat:  make([]float64, n),
		Obs:   append([]float64(nil), p.pobs[first:]...),
		Order: make([]int, n),
		Valid: n,
		pobs:  p.pobs[first:],
	}
	for i := range sub.Order {
		sub.Order[i] = i
		sub.Stat[i] = p.Stat[p.Order[first+i]]
	}
	k, err := stat.NewKernel(p.Design, sub.M)
	if err != nil {
		t.Fatal(err)
	}
	sub.Kernel = k
	return sub
}

// withISA returns a copy of p that counts on the given lane.
func withISA(p *Prep, isa stat.KernelISA) *Prep {
	q := *p
	q.isa = isa
	return &q
}

// countISAs lists the ISAs this CPU can run (stat.SupportedISAs, in
// KernelISA order), each a counting lane to test and a kernel to time.
func countISAs() []stat.KernelISA {
	var out []stat.KernelISA
	for isa := range stat.SupportedISAs() {
		out = append(out, stat.KernelISA(isa))
	}
	return out
}

// TestCountQuadsUnderEveryHigherISA: every ISA from avx2 up — those this
// CPU cannot run too, since only the gate is read — folds all but nb mod 4
// labellings on the AVX2 counter, so a new ISA cannot silently drop it.
func TestCountQuadsUnderEveryHigherISA(t *testing.T) {
	for isa := stat.ISAAVX2; int(isa) < len(stat.KernelNames())-1; isa++ {
		if got := countQuads(isa, 67); got != 64 {
			t.Errorf("countQuads(%v, 67) = %d, want 64", isa, got)
		}
	}
	if got := countQuads(stat.ISAGeneric, 67); got != 0 {
		t.Errorf("countQuads(generic, 67) = %d, want 0", got)
	}
}

// repeatLabels labels n columns in runs of run columns per class, cycling
// through classes 0…k−1: half-and-half designs, pairs, three equal
// classes, blocks of four treatments.
func repeatLabels(n, run, k int) []int {
	lab := make([]int, n)
	for j := range lab {
		lab[j] = j / run % k
	}
	return lab
}

// where renders the case a failure message is about.
func where(ctx []any) string {
	if len(ctx) == 0 {
		return ""
	}
	return strings.TrimSuffix(fmt.Sprintln(ctx...), "\n") + ": "
}

// requireCountsEqual fails the test, naming the case in ctx, unless got
// equals the oracle's counts.
func requireCountsEqual(t *testing.T, got, want *Counts, ctx ...any) {
	t.Helper()
	if got.B != want.B {
		t.Fatalf("%sB = %d, oracle %d", where(ctx), got.B, want.B)
	}
	for i := range want.Raw {
		if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
			t.Fatalf("%srow %d: counts (raw %d, adj %d), oracle (raw %d, adj %d)",
				where(ctx), i, got.Raw[i], got.Adj[i], want.Raw[i], want.Adj[i])
		}
	}
}

// requireCountsFrom checks counts accumulated by ProcessFrom(…, first)
// against full-run oracle counts: equal at positions first and below, zero
// above.
func requireCountsFrom(t *testing.T, p *Prep, first int, got, want *Counts, ctx ...any) {
	t.Helper()
	if got.B != want.B {
		t.Fatalf("%sB = %d, oracle %d", where(ctx), got.B, want.B)
	}
	for j, r := range p.Order {
		wr, wa := want.Raw[r], want.Adj[r]
		if j < first {
			wr, wa = 0, 0
		}
		if got.Raw[r] != wr || got.Adj[r] != wa {
			t.Fatalf("%sfirst=%d position %d (row %d): counts (raw %d, adj %d), want (raw %d, adj %d)",
				where(ctx), first, j, r, got.Raw[r], got.Adj[r], wr, wa)
		}
	}
}

// countData names the data patterns of the pipeline sweep.  Each builds a
// rows × cols matrix; nonpara says whether to rank-transform it, and
// validOK, when set, checks that the pattern produced the Valid it is
// named for.
var countData = []struct {
	name    string
	nonpara bool
	build   func(rows, cols int) matrix.Matrix
	validOK func(valid, rows int) bool
}{
	{"na-bearing", false, func(rows, cols int) matrix.Matrix { return batchMatrix(rows, cols, 11) }, nil},
	{"tied-ranks", true, func(rows, cols int) matrix.Matrix { return deltaMatrix(rows, cols, false, 23) }, nil},
	{"all-nan-rows", false, func(rows, cols int) matrix.Matrix {
		m := batchMatrix(rows, cols, 37)
		for i := 0; i < rows; i += 3 {
			for j := range m.Row(i) {
				m.Row(i)[j] = math.NaN()
			}
		}
		return m
	}, func(valid, rows int) bool { return valid > 0 && valid <= rows-rows/3 }},
	{"valid=0", false, func(rows, cols int) matrix.Matrix {
		m := matrix.New(rows, cols)
		for o := range m.Data {
			m.Data[o] = math.NaN()
		}
		return m
	}, func(valid, rows int) bool { return valid == 0 }},
	{"valid=rows", false, func(rows, cols int) matrix.Matrix { return cleanMatrix(rows, cols, 0xfeed) },
		func(valid, rows int) bool { return valid == rows }},
}

// cleanMatrix builds a matrix of distinct finite values: every row has a
// computable statistic under every test.
func cleanMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	for o := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[o] = float64(s>>11)/float64(1<<53)*14 - 7
	}
	return m
}

// TestCountMatchesOracle sweeps the whole counting pipeline against the
// three-pass routine: every test, side and data pattern, through
// ProcessBatched at batch sizes around the default 64, in ragged windows
// that reuse one Scratch and one Counts, on every counting lane, on the
// full prep and on the sub-prep of its positions 3 and below — where the
// full prep started at position 3 must count the same.
func TestCountMatchesOracle(t *testing.T) {
	const rows, total = 21, 200
	windows := []int64{0, 1, 2, 66, 129, 130, total}
	for _, tc := range batchDesigns(t) {
		d, err := stat.NewDesign(tc.test, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		gen := perm.NewRandom(d, 5, total)
		for _, side := range []Side{Abs, Upper, Lower} {
			for _, data := range countData {
				full, err := NewPrepMatrix(data.build(rows, d.N), d, side, data.nonpara)
				if err != nil {
					t.Fatal(err)
				}
				if data.validOK != nil && !data.validOK(full.Valid, rows) {
					t.Fatalf("%s/%v/%s: Valid = %d of %d rows", tc.name, side, data.name, full.Valid, rows)
				}
				wantFull := NewCounts(rows)
				oracleProcess(full, gen, 0, total, wantFull)
				preps := map[string]*Prep{"full": full}
				if full.Valid > 4 {
					preps["subset"] = subPrep(t, full, 3)
				}
				for kind, p := range preps {
					want := NewCounts(p.Rows())
					oracleProcess(p, gen, 0, total, want)
					for _, batch := range []int{1, 2, 63, 64, 65} {
						name := fmt.Sprintf("%s/%v/%s/%s/batch=%d", tc.name, side, data.name, kind, batch)
						t.Run(name, func(t *testing.T) {
							for _, isa := range countISAs() {
								p := withISA(p, isa)
								got := NewCounts(p.Rows())
								scratch := p.NewScratch()
								for w := 0; w+1 < len(windows); w++ {
									ProcessBatched(p, gen, windows[w], windows[w+1], got, scratch, batch)
								}
								requireCountsEqual(t, got, want)
								if kind != "subset" {
									continue
								}
								from := NewCounts(rows)
								scratch = full.ScratchFrom(scratch)
								for w := 0; w+1 < len(windows); w++ {
									ProcessFrom(withISA(full, isa), gen, windows[w], windows[w+1], from, scratch, batch, 3)
								}
								requireCountsFrom(t, full, 3, from, wantFull)
							}
						})
					}
				}
			}
		}
	}
}

// TestCountBlockEdges walks the block structure of ProcessFrom: Valid on
// both sides of one block and of several, first positions that split a
// block or a row quad of the two-sample kernel, batch sizes on both sides
// of the four-labelling step, under sampling and under the revolving door,
// on every lane — against the oracle's full-run counts.
func TestCountBlockEdges(t *testing.T) {
	const rows, total = 2*blockRows + 9, 70
	designs := []struct {
		name   string
		test   stat.Test
		labels []int
		door   bool
	}{
		{"welch-random", stat.Welch, []int{0, 1, 0, 1, 1, 0, 1, 0}, false},
		{"wilcoxon-door", stat.Wilcoxon, []int{0, 0, 0, 0, 1, 1, 1, 1}, true},
	}
	for _, tc := range designs {
		d, err := stat.NewDesign(tc.test, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		var gen perm.Generator = perm.NewRandom(d, 8, total)
		if tc.door {
			if gen, err = perm.NewRevolvingDoor(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, valid := range []int{0, 1, 3, blockRows - 1, blockRows, blockRows + 1, rows} {
			m := cleanMatrix(rows, d.N, uint64(valid)+3)
			for i := valid; i < rows; i++ {
				for j := range m.Row(i) {
					m.Row(i)[j] = math.NaN()
				}
			}
			for _, side := range []Side{Abs, Upper, Lower} {
				t.Run(fmt.Sprintf("%s/valid=%d/%v", tc.name, valid, side), func(t *testing.T) {
					p, err := NewPrepMatrix(m, d, side, false)
					if err != nil {
						t.Fatal(err)
					}
					if p.Valid != valid {
						t.Fatalf("Valid = %d, built for %d", p.Valid, valid)
					}
					want := NewCounts(rows)
					oracleProcess(p, gen, 0, total, want)
					firsts := []int{0, 1, 2, 3, 5, valid - blockRows - 1, valid - blockRows, valid - blockRows + 1, valid - 1, valid, valid + 7, -4}
					for _, isa := range countISAs() {
						p := withISA(p, isa)
						scratch := p.NewScratch()
						for _, nb := range []int{1, 2, 3, 4, 5, 63, 64, 65} {
							for _, first := range firsts {
								got := NewCounts(rows)
								ProcessFrom(p, gen, 0, total, got, scratch, nb, first)
								requireCountsFrom(t, p, min(max(first, 0), valid), got, want, isa, "nb", nb, "first", first)
							}
						}
					}
				})
			}
		}
	}
}

// TestCountMatchesOracleOnStatistics drives the counter alone with
// statistic vectors no kernel is obliged to produce: NaN, ±Inf, signed
// zeros and exact ties in both the observed and the permuted position, a
// batch of them at a time on every lane.  Hand-placed beside the random
// draws: an observed -Inf (side upper) or +Inf (side lower) meeting a NaN
// permuted value, which must count and is what forces the NaN → -Inf
// replacement; -0 permuted against +0 observed and the reverse, which must
// count on every side; and a batch whose statistics are all tied.
func TestCountMatchesOracleOnStatistics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, negZero, 1, -1, 2.5, -2.5}
	s := uint64(99)
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			s = s*6364136223846793005 + 1442695040888963407
			v[i] = pool[(s>>33)%uint64(len(pool))]
		}
		return v
	}
	// placed, when set, fixes row 0's observed statistic and its permuted
	// statistic under every labelling; every such pair must count.
	type pattern struct {
		name         string
		placed, tied bool
		obs0, z0     float64
	}
	for _, side := range []Side{Abs, Upper, Lower} {
		patterns := []pattern{
			{name: "random"},
			{name: "-0 against +0", placed: true, obs0: 0, z0: negZero},
			{name: "+0 against -0", placed: true, obs0: negZero, z0: 0},
			{name: "all tied", tied: true},
		}
		if side != Abs { // |t| is never -Inf
			patterns = append(patterns, pattern{name: "NaN against -Inf", placed: true,
				obs0: side.transform(math.Inf(-1)), z0: math.NaN()})
		}
		for _, n := range []int{1, 2, 7, 40} {
			for _, pat := range patterns {
				for _, nb := range []int{1, 2, 3, 4, 5, 63, 64, 65} {
					p := &Prep{Side: side, M: matrix.Matrix{Rows: n}, Stat: draw(n), Obs: make([]float64, n)}
					if pat.placed {
						p.Stat[0] = pat.obs0
					}
					p.rankRows()
					// zs[b] is labelling b's statistics by row; blk the same
					// by position, labellings contiguous.
					zs := make([][]float64, nb)
					blk := make([]float64, p.Valid*nb)
					for b := range zs {
						z := draw(n)
						if pat.placed {
							z[0] = pat.z0
						}
						if pat.tied {
							for i := range z {
								z[i] = 2.5
							}
						}
						zs[b] = z
						for j, r := range p.Order[:p.Valid] {
							blk[j*nb+b] = z[r]
						}
					}
					want := NewCounts(n)
					for _, z := range zs {
						p.countPermutation(append([]float64(nil), z...), want)
					}
					if pat.placed && want.Raw[0] != int64(nb) {
						t.Fatalf("side %v, %s: oracle counted %d of %d", side, pat.name, want.Raw[0], nb)
					}
					for _, isa := range countISAs() {
						p.isa = isa
						raw, adj := make([]int64, p.Valid), make([]int64, p.Valid)
						u := make([]float64, nb)
						for b := range u {
							u[b] = math.Inf(-1)
						}
						// Two blocks, split at an arbitrary position: u carries.
						mid := p.Valid / 3
						p.countBlock(blk[mid*nb:], mid, p.Valid, nb, u, raw, adj)
						p.countBlock(blk, 0, mid, nb, u, raw, adj)
						got := NewCounts(n)
						for j, r := range p.Order[:p.Valid] {
							got.Raw[r], got.Adj[r] = raw[j], adj[j]
						}
						got.B = int64(nb)
						requireCountsEqual(t, got, want, side, "n", n, "nb", nb, isa, pat.name)
					}
				}
			}
		}
	}
}

// FuzzCountRow pins the AVX2 lane to tallyRow on arbitrary bit patterns —
// every NaN payload, infinities, denormals and signed zeros, in the
// statistics, the running maxima and the observed value, under each side.
func FuzzCountRow(f *testing.F) {
	if !slices.Contains(countISAs(), stat.ISAAVX2) {
		f.Skip("no AVX2 on this CPU")
	}
	bits := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(bits(1, -1, 0, math.Copysign(0, -1), nan, inf, -inf, 2.5, -inf, -inf, 0, 0, 3, nan, inf, -inf), math.Float64bits(0), uint8(0))
	f.Add(bits(nan, nan, nan, nan, -inf, -inf, -inf, -inf), math.Float64bits(-inf), uint8(1))
	f.Add(bits(nan, 1, -0.5, inf, inf, -inf, 7, 7), math.Float64bits(inf), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, obits uint64, side uint8) {
		n := len(data) / 16 &^ 3 // z then u, a whole number of quads
		if n == 0 {
			return
		}
		z, u := make([]float64, n), make([]float64, n)
		for i := range z {
			z[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			u[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(n+i):]))
		}
		o := math.Float64frombits(obits)
		flip, keep := Side(side % 3).bits()
		uGo := append([]float64(nil), u...)
		rGo, aGo := tallyRow(z, uGo, o, flip, keep)
		r, a := countRowAVX2(z, u, o, flip, keep)
		if r != rGo || a != aGo {
			t.Fatalf("side %v o=%v z=%v: asm counts (%d, %d), tallyRow (%d, %d)", Side(side%3), o, z, r, a, rGo, aGo)
		}
		for i := range u {
			if math.Float64bits(u[i]) != math.Float64bits(uGo[i]) {
				t.Fatalf("side %v z=%v: asm u[%d] = %x, tallyRow %x", Side(side%3), z, i, math.Float64bits(u[i]), math.Float64bits(uGo[i]))
			}
		}
	})
}

// TestScratchAcrossPrepsZeroAllocs extends TestProcessBatchedZeroAllocs and
// TestDeltaLoopZeroAllocs to a Scratch that moves between preps of
// different Valid through ScratchFrom, as a jobs worker's does: the
// position accumulators, the block buffer and the running maxima live in
// it, so steady state still allocates nothing and no count leaks from one
// prep's call into the next's.
func TestScratchAcrossPrepsZeroAllocs(t *testing.T) {
	d, err := stat.NewDesign(stat.Welch, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewPrepMatrix(diffMatrix(60, d.N, 3), d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	small := subPrep(t, big, 20)
	gen := perm.NewRandom(d, 1, 1<<20)
	const batch = 32
	cBig, cSmall := NewCounts(big.Rows()), NewCounts(small.Rows())
	scratch := big.NewScratch()
	ProcessBatched(big, gen, 0, 2*batch, cBig, scratch, batch) // warm
	allocs := testing.AllocsPerRun(10, func() {
		scratch = small.ScratchFrom(scratch)
		ProcessBatched(small, gen, 0, 2*batch, cSmall, scratch, batch)
		scratch = big.ScratchFrom(scratch)
		ProcessBatched(big, gen, 0, 2*batch+5, cBig, scratch, batch)
	})
	if allocs != 0 {
		t.Fatalf("ProcessBatched allocates %v per run in steady state, want 0", allocs)
	}
	want := NewCounts(small.Rows())
	oracleProcess(small, gen, 0, 2*batch, want)
	got := NewCounts(small.Rows())
	ProcessBatched(small, gen, 0, 2*batch, got, small.ScratchFrom(scratch), batch)
	requireCountsEqual(t, got, want)
}

// BenchmarkCount reports the cost of one (row, permutation) cell at the
// paper's shapes — Welch t on 6102×76 under random sampling, Wilcoxon on
// 6102×16 in revolving-door order, and the paired t, F and block F kernels
// on 6102×75–76 under random sampling — for ProcessBatched as the engine
// runs it (process) and, per kernel ISA, for the same walk of labels and
// row blocks with the counting skipped (kernel/<isa>), so the counting
// share is the difference of the two lines; count is the counter alone on
// one full block, per lane.
func BenchmarkCount(b *testing.B) {
	const rows, perms, batch = 6102, 2048, 64
	random := func(d *stat.Design) perm.Generator { return perm.NewRandom(d, 1, perms) }
	cases := []struct {
		name   string
		test   stat.Test
		labels []int
		gen    func(*stat.Design) perm.Generator
	}{
		{"welch-6102x76-random", stat.Welch, repeatLabels(76, 38, 2), random},
		{"wilcoxon-6102x16-door", stat.Wilcoxon, repeatLabels(16, 8, 2), func(d *stat.Design) perm.Generator {
			g, err := perm.NewRevolvingDoor(d)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
		{"pairt-6102x76-random", stat.PairT, repeatLabels(76, 1, 2), random},
		{"f-6102x75-random", stat.F, repeatLabels(75, 25, 3), random},
		{"blockf-6102x76-random", stat.BlockF, repeatLabels(76, 1, 4), random},
	}
	perCell := func(b *testing.B, cells int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	}
	// prepUnder builds the case's prep with its kernel on the given ISA.
	prepUnder := func(b *testing.B, isa stat.KernelISA, d *stat.Design) *Prep {
		before := stat.ActiveKernelISA()
		defer stat.SetKernelISA(before.String())
		if _, err := stat.SetKernelISA(isa.String()); err != nil {
			b.Fatal(err)
		}
		p, err := NewPrepMatrix(cleanMatrix(rows, d.N, 7), d, Abs, false)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, tc := range cases {
		d, err := stat.NewDesign(tc.test, tc.labels)
		if err != nil {
			b.Fatal(err)
		}
		gen := tc.gen(d)
		b.Run(tc.name+"/process", func(b *testing.B) {
			p := prepUnder(b, stat.ActiveKernelISA(), d)
			c := NewCounts(rows)
			scratch := p.NewScratch()
			ProcessBatched(p, gen, 0, batch, c, scratch, batch) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ProcessBatched(p, gen, 0, perms, c, scratch, batch)
			}
			perCell(b, rows*perms)
		})
		for _, isa := range countISAs() {
			b.Run(tc.name+"/kernel/"+isa.String(), func(b *testing.B) {
				p := prepUnder(b, isa, d)
				bk := p.Kernel
				dk, _ := p.Kernel.(stat.DeltaKernel)
				dg, door := gen.(perm.DeltaGenerator)
				if door && (dk == nil || !dk.DeltaOK()) {
					b.Fatal("delta path not engaged")
				}
				s := p.NewScratch()
				p.ensureBatch(s, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for base := int64(0); base < perms; base += batch {
						if door {
							dg.LabelsDelta(base, batch, s.lab, s.moves[:batch-1])
							dk.OpenDelta(s.lab, s.moves[:batch-1], s.bks)
						} else {
							gen.Labels(base, batch, s.labs)
							bk.OpenBatch(s.labs, batch, s.bks)
						}
						for bhi := p.Valid; bhi > 0; bhi -= blockRows {
							blo := max(bhi-blockRows, 0)
							if door {
								dk.DeltaRows(blo, bhi, s.blk, 1, batch, s.bks)
							} else {
								bk.StatsRows(blo, bhi, s.blk, 1, batch, s.bks)
							}
						}
					}
				}
				perCell(b, rows*perms)
			})
		}
	}
	blk := cleanMatrix(blockRows, batch, 5).Data
	for _, isa := range countISAs() {
		p := &Prep{Side: Abs, pobs: cleanMatrix(1, blockRows, 6).Data, isa: isa}
		b.Run("count-128x64/"+isa.String(), func(b *testing.B) {
			raw, adj := make([]int64, blockRows), make([]int64, blockRows)
			u := make([]float64, batch)
			for i := 0; i < b.N; i++ {
				for l := range u {
					u[l] = math.Inf(-1)
				}
				p.countBlock(blk, 0, blockRows, batch, u, raw, adj)
			}
			perCell(b, blockRows*batch)
		})
	}
}
