package maxt

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// countPermutation is the counting routine Prep.count replaced, kept
// verbatim as the differential oracle: it side-transforms one permutation's
// statistics in place, then makes a raw-count pass over all rows and a
// step-down pass through Order, adding straight into c.
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

// oracleProcess is the scalar loop over [lo, hi) that feeds the oracle
// counter: one kernel Stats call per permutation, no batching.
func oracleProcess(p *Prep, gen perm.Generator, lo, hi int64, c *Counts) {
	lab := make([]int, p.Design.N)
	z := make([]float64, p.M.Rows)
	for idx := lo; idx < hi; idx++ {
		gen.Label(idx, lab)
		p.Kernel.Stats(lab, z, nil)
		p.countPermutation(z, c)
	}
}

func requireCountsEqual(t *testing.T, got, want *Counts) {
	t.Helper()
	if got.B != want.B {
		t.Fatalf("B = %d, oracle %d", got.B, want.B)
	}
	for i := range want.Raw {
		if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
			t.Fatalf("row %d: counts (raw %d, adj %d), oracle (raw %d, adj %d)",
				i, got.Raw[i], got.Adj[i], want.Raw[i], want.Adj[i])
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
// replaced routine: every test, side and data pattern, through
// ProcessBatched at batch sizes around the default 64, in ragged windows
// that reuse one Scratch and one Counts, on the full prep and on a Subset
// of it.  Counts must agree cell for cell.
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
				preps := map[string]*Prep{"full": full}
				if full.Valid > 4 {
					sub, err := full.Subset(full.Order[3:full.Valid])
					if err != nil {
						t.Fatal(err)
					}
					preps["subset"] = sub
				}
				for kind, p := range preps {
					want := NewCounts(p.Rows())
					oracleProcess(p, gen, 0, total, want)
					for _, batch := range []int{1, 2, 63, 64, 65} {
						name := fmt.Sprintf("%s/%v/%s/%s/batch=%d", tc.name, side, data.name, kind, batch)
						t.Run(name, func(t *testing.T) {
							got := NewCounts(p.Rows())
							scratch := p.NewScratch()
							for w := 0; w+1 < len(windows); w++ {
								ProcessBatched(p, gen, windows[w], windows[w+1], got, scratch, batch)
							}
							requireCountsEqual(t, got, want)
						})
					}
				}
			}
		}
	}
}

// TestCountMatchesOracleOnStatistics drives the counter alone with
// statistic vectors no kernel is obliged to produce: NaN, ±Inf and exact
// ties in both the observed and the permuted position.  The case that
// forces the NaN → -Inf replacement is in the pool: an observed -Inf (side
// upper) or +Inf (side lower) meets a NaN permuted value, which must count.
func TestCountMatchesOracleOnStatistics(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 1, -1, 2.5, -2.5}
	s := uint64(99)
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			s = s*6364136223846793005 + 1442695040888963407
			v[i] = pool[(s>>33)%uint64(len(pool))]
		}
		return v
	}
	for _, side := range []Side{Abs, Upper, Lower} {
		for _, n := range []int{1, 2, 7, 40} {
			for trial := 0; trial < 40; trial++ {
				// Trial 0 places the forcing case by hand (|t| has no -Inf,
				// so not under side abs): row 0 observes the statistic that
				// transforms to -Inf and permutes to NaN every time.
				forcing := trial == 0 && side != Abs
				p := &Prep{Side: side, M: matrix.Matrix{Rows: n}, Stat: draw(n), Obs: make([]float64, n)}
				if forcing {
					p.Stat[0] = side.transform(math.Inf(-1))
				}
				p.rankRows()
				want, got := NewCounts(n), NewCounts(n)
				raw, adj := make([]int64, p.Valid), make([]int64, p.Valid)
				for b := 0; b < 60; b++ {
					z := draw(n)
					if forcing {
						z[0] = math.NaN()
					}
					p.count(z, raw, adj)
					p.countPermutation(z, want) // transforms z in place: goes last
				}
				p.scatter(&Scratch{raw: raw, adj: adj}, got, 60)
				requireCountsEqual(t, got, want)
				if forcing && got.Raw[0] != 60 {
					t.Fatalf("side %v: NaN against observed -Inf counted %d of 60", side, got.Raw[0])
				}
			}
		}
	}
}

// TestScratchAcrossPrepsZeroAllocs extends TestProcessBatchedZeroAllocs and
// TestDeltaLoopZeroAllocs to a Scratch that moves between preps of
// different Valid through ScratchFrom, as a jobs worker's does: the
// position accumulators live in it, so steady state still allocates nothing
// and no count leaks from one prep's call into the next's.
func TestScratchAcrossPrepsZeroAllocs(t *testing.T) {
	d, err := stat.NewDesign(stat.Welch, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewPrepMatrix(diffMatrix(60, d.N, 3), d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	small, err := big.Subset(big.Order[20:big.Valid])
	if err != nil {
		t.Fatal(err)
	}
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
// 6102×16 in revolving-door order — for ProcessBatched as the engine runs
// it and for the same call with the counting pass emptied, so the counting
// share is the difference of the two lines.
func BenchmarkCount(b *testing.B) {
	const rows, perms, batch = 6102, 2048, 64
	cases := []struct {
		name string
		test stat.Test
		cols int
		gen  func(*stat.Design) perm.Generator
	}{
		{"welch-6102x76-random", stat.Welch, 76, func(d *stat.Design) perm.Generator {
			return perm.NewRandom(d, 1, perms)
		}},
		{"wilcoxon-6102x16-door", stat.Wilcoxon, 16, func(d *stat.Design) perm.Generator {
			g, err := perm.NewRevolvingDoor(d)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
	}
	for _, tc := range cases {
		labels := make([]int, tc.cols)
		for i := tc.cols / 2; i < tc.cols; i++ {
			labels[i] = 1
		}
		d, err := stat.NewDesign(tc.test, labels)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewPrepMatrix(cleanMatrix(rows, tc.cols, 7), d, Abs, false)
		if err != nil {
			b.Fatal(err)
		}
		gen := tc.gen(d)
		if _, door := gen.(perm.DeltaGenerator); door {
			if dk, ok := p.Kernel.(stat.DeltaKernel); !ok || !dk.DeltaOK() {
				b.Fatal("delta path not engaged")
			}
		}
		kernelOnly := *p
		kernelOnly.ord, kernelOnly.pobs = nil, nil
		for _, v := range []struct {
			name string
			prep *Prep
		}{{"process", p}, {"kernel", &kernelOnly}} {
			b.Run(tc.name+"/"+v.name, func(b *testing.B) {
				c := NewCounts(rows)
				scratch := v.prep.NewScratch()
				ProcessBatched(v.prep, gen, 0, batch, c, scratch, batch) // warm
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ProcessBatched(v.prep, gen, 0, perms, c, scratch, batch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*perms), "ns/cell")
			})
		}
	}
}
