package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/rng"
)

// mat adapts [][]float64 test data to the engine's flat matrix; empty or
// ragged input becomes the empty matrix, which every entry point rejects.
func mat(x [][]float64) matrix.Matrix {
	m, _ := matrix.FromRows(x)
	return m
}

// serialRun is the facade's MaxT: the service engine on one rank.
func serialRun(x [][]float64, lab []int, opt Options) (*Result, error) {
	return RunMatrix(mat(x), lab, opt, RunControl{NProcs: 1})
}

// collective is the paper's pmaxT on nprocs ranks: the independent
// orchestration the service engine is checked against.
func collective(x [][]float64, lab []int, nprocs int, opt Options) (*Result, error) {
	return PMaxTMatrix(mat(x), lab, nprocs, opt)
}

// synthMatrix builds a deterministic rows×cols matrix with the first
// nDiff rows differentially expressed between the two halves of columns.
func synthMatrix(rows, cols, nDiff int, seed uint64) [][]float64 {
	src := rng.New(seed)
	x := make([][]float64, rows)
	for i := range x {
		row := make([]float64, cols)
		for j := range row {
			row[j] = src.NormFloat64()
			if i < nDiff && j >= cols/2 {
				row[j] += 2.5
			}
		}
		x[i] = row
	}
	return x
}

func twoClass(n0, n1 int) []int {
	lab := make([]int, n0+n1)
	for i := n0; i < n0+n1; i++ {
		lab[i] = 1
	}
	return lab
}

func resultsEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.B != b.B || a.Complete != b.Complete {
		t.Fatalf("%s: B/Complete mismatch: (%d,%v) vs (%d,%v)", name, a.B, a.Complete, b.B, b.Complete)
	}
	for i := range a.RawP {
		switch {
		case math.IsNaN(a.RawP[i]) != math.IsNaN(b.RawP[i]):
			t.Fatalf("%s row %d: NaN mismatch", name, i)
		case !math.IsNaN(a.RawP[i]) && (a.RawP[i] != b.RawP[i] || a.AdjP[i] != b.AdjP[i]):
			t.Fatalf("%s row %d: serial (raw=%v adj=%v) != parallel (raw=%v adj=%v)",
				name, i, a.RawP[i], a.AdjP[i], b.RawP[i], b.AdjP[i])
		}
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: order mismatch at %d", name, i)
		}
	}
}

// TestParallelIdenticalToSerial is the paper's central correctness claim:
// "To be able to reproduce the same results as the serial version" —
// pmaxT output must be bit-identical to mt.maxT for every statistic,
// generator and process count.
func TestParallelIdenticalToSerial(t *testing.T) {
	x := synthMatrix(30, 12, 5, 2024)
	lab := twoClass(6, 6)
	flab := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	plab := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	blab := []int{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2}

	cases := []struct {
		name string
		lab  []int
		opt  Options
	}{
		{"welch/abs/otf", lab, Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 200, Seed: 1}},
		{"welch/upper/stored", lab, Options{Test: "t", Side: "upper", FixedSeedSampling: "n", B: 200, Seed: 2}},
		{"welch/lower/otf", lab, Options{Test: "t", Side: "lower", FixedSeedSampling: "y", B: 150, Seed: 3}},
		{"equalvar/abs/stored", lab, Options{Test: "t.equalvar", Side: "abs", FixedSeedSampling: "n", B: 150, Seed: 4}},
		{"wilcoxon/abs/otf", lab, Options{Test: "wilcoxon", Side: "abs", FixedSeedSampling: "y", B: 150, Seed: 5}},
		{"f/abs/otf", flab, Options{Test: "f", Side: "abs", FixedSeedSampling: "y", B: 150, Seed: 6}},
		{"pairt/abs/complete", plab, Options{Test: "pairt", Side: "abs", B: 0, Seed: 7}},
		{"pairt/abs/otf", plab, Options{Test: "pairt", Side: "abs", FixedSeedSampling: "y", B: 40, Seed: 8}},
		{"blockf/abs/otf", blab, Options{Test: "blockf", Side: "abs", FixedSeedSampling: "y", B: 100, Seed: 9}},
		{"welch/nonpara", lab, Options{Test: "t", Nonpara: "y", B: 100, Seed: 10}},
		{"welch/scalarparams", lab, Options{Test: "t", B: 100, Seed: 11, ScalarParams: true}},
	}
	for _, tc := range cases {
		serial, err := serialRun(x, tc.lab, tc.opt)
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		for _, nprocs := range []int{1, 2, 3, 4, 7} {
			par, err := collective(x, tc.lab, nprocs, tc.opt)
			if err != nil {
				t.Fatalf("%s nprocs=%d: %v", tc.name, nprocs, err)
			}
			if par.NProcs != nprocs {
				t.Errorf("%s: NProcs = %d, want %d", tc.name, par.NProcs, nprocs)
			}
			resultsEqual(t, tc.name, serial, par)
		}
	}
}

func TestChunkDistribution(t *testing.T) {
	// Figure 2: contiguous equal chunks covering [0, B), identity (index
	// 0) only in rank 0's chunk.
	for _, tc := range []struct{ B, size int64 }{{23, 3}, {150000, 512}, {10, 16}, {1, 1}, {7, 7}} {
		var covered int64
		for r := int64(0); r < tc.size; r++ {
			lo, hi := Chunk(tc.B, int(tc.size), int(r))
			if lo > hi {
				t.Fatalf("B=%d size=%d rank=%d: lo %d > hi %d", tc.B, tc.size, r, lo, hi)
			}
			if r == 0 && tc.B > 0 && lo != 0 {
				t.Fatalf("rank 0 chunk does not start at the observed permutation")
			}
			if r > 0 {
				_, prevHi := Chunk(tc.B, int(tc.size), int(r-1))
				if lo != prevHi {
					t.Fatalf("B=%d size=%d: gap between ranks %d and %d", tc.B, tc.size, r-1, r)
				}
			}
			covered += hi - lo
			// Equal chunks: sizes differ by at most 1.
			if hi-lo > tc.B/tc.size+1 || hi-lo < tc.B/tc.size {
				t.Fatalf("B=%d size=%d rank=%d: chunk size %d not balanced", tc.B, tc.size, r, hi-lo)
			}
		}
		if covered != tc.B {
			t.Fatalf("B=%d size=%d: chunks cover %d", tc.B, tc.size, covered)
		}
	}
}

// TestFigure2Distribution pins the concrete example drawn in Figure 2 of
// the paper: 23 permutations over 3 processes — the master takes the
// observed permutation plus its chunk, the others skip it.
func TestFigure2Distribution(t *testing.T) {
	bounds := [][2]int64{}
	for r := 0; r < 3; r++ {
		lo, hi := Chunk(23, 3, r)
		bounds = append(bounds, [2]int64{lo, hi})
	}
	if bounds[0][0] != 0 {
		t.Error("master does not own the observed permutation")
	}
	for r := 1; r < 3; r++ {
		if bounds[r][0] == 0 {
			t.Errorf("rank %d owns the observed permutation too", r)
		}
	}
	if bounds[2][1] != 23 {
		t.Error("last rank does not end at B")
	}
}

func TestCompleteEnumerationChosenWhenSmall(t *testing.T) {
	// C(8,4) = 70 < B = 1000, so exact enumeration replaces sampling.
	x := synthMatrix(5, 8, 1, 3)
	res, err := serialRun(x, twoClass(4, 4), Options{B: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.B != 70 {
		t.Errorf("Complete=%v B=%d, want complete with 70", res.Complete, res.B)
	}
}

func TestCompleteRequestedExplicitly(t *testing.T) {
	x := synthMatrix(5, 8, 1, 3)
	res, err := serialRun(x, twoClass(4, 4), Options{B: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.B != 70 {
		t.Errorf("Complete=%v B=%d, want complete with 70", res.Complete, res.B)
	}
}

func TestCompleteTooLargeAsksForExplicitB(t *testing.T) {
	x := synthMatrix(3, 20, 1, 3)
	_, err := serialRun(x, twoClass(10, 10), Options{B: 0, MaxComplete: 1000})
	if err == nil || !strings.Contains(err.Error(), "request a smaller number") {
		t.Fatalf("error = %v, want limit message", err)
	}
}

func TestCompleteOverflowAsksForExplicitB(t *testing.T) {
	x := synthMatrix(3, 76, 1, 3)
	_, err := serialRun(x, twoClass(38, 38), Options{B: 0})
	if err == nil {
		t.Fatal("overflowing complete count accepted")
	}
}

func TestNAValuesExcluded(t *testing.T) {
	x := synthMatrix(10, 12, 2, 5)
	// Plant the NA code; the run must treat those cells as missing, and
	// the result must match a run on a NaN-planted copy.
	xna := make([][]float64, len(x))
	xnan := make([][]float64, len(x))
	for i := range x {
		xna[i] = append([]float64(nil), x[i]...)
		xnan[i] = append([]float64(nil), x[i]...)
	}
	xna[3][4] = DefaultNA
	xnan[3][4] = math.NaN()
	lab := twoClass(6, 6)
	opt := Options{B: 100, Seed: 1}
	a, err := serialRun(xna, lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serialRun(xnan, lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "na-vs-nan", a, b)
}

func TestCustomNACode(t *testing.T) {
	x := synthMatrix(6, 12, 2, 5)
	x[0][0] = -999
	res, err := serialRun(x, twoClass(6, 6), Options{B: 50, NA: -999, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.RawP[0]) {
		t.Error("row with one NA became uncomputable")
	}
}

func TestOptionValidationErrors(t *testing.T) {
	x := synthMatrix(4, 12, 1, 1)
	lab := twoClass(6, 6)
	cases := []Options{
		{Test: "bogus"},
		{Side: "both"},
		{FixedSeedSampling: "maybe"},
		{Nonpara: "perhaps"},
		{B: -5},
	}
	for i, opt := range cases {
		if _, err := serialRun(x, lab, opt); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if _, err := serialRun(nil, lab, Options{B: 10}); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := collective(x, lab, 2, Options{Test: "bogus"}); err == nil {
		t.Error("parallel run with invalid options succeeded")
	}
}

// TestPMaxTDefaultNProcs: nprocs <= 0 selects every available CPU instead
// of failing, matching the jobs manager and the CLIs.
func TestPMaxTDefaultNProcs(t *testing.T) {
	x := synthMatrix(4, 12, 1, 1)
	lab := twoClass(6, 6)
	res, err := collective(x, lab, 0, Options{B: 20})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); res.NProcs != want {
		t.Errorf("NProcs = %d, want GOMAXPROCS %d", res.NProcs, want)
	}
}

func TestDefaultOptionsAreValid(t *testing.T) {
	opt := DefaultOptions()
	cfg, err := parseOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.b != 10000 || !cfg.fixedSeed || cfg.nonpara {
		t.Errorf("default config = %+v", cfg)
	}
}

func TestProfileSectionsPopulated(t *testing.T) {
	x := synthMatrix(50, 12, 5, 6)
	res, err := collective(x, twoClass(6, 6), 3, Options{B: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.MainKernel <= 0 {
		t.Error("MainKernel not timed")
	}
	if p.Total() < p.MainKernel {
		t.Error("Total() less than a component")
	}
	if res.KernelMax < p.MainKernel {
		t.Errorf("KernelMax %v < master kernel %v", res.KernelMax, p.MainKernel)
	}
}

func TestSpikedGenesMostSignificant(t *testing.T) {
	x := synthMatrix(40, 16, 4, 7)
	res, err := collective(x, twoClass(8, 8), 4, Options{B: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The four spiked rows must occupy the top four order slots.
	top := map[int]bool{}
	for _, r := range res.Order[:4] {
		top[r] = true
	}
	for i := 0; i < 4; i++ {
		if !top[i] {
			t.Errorf("spiked row %d not in top 4 (order %v)", i, res.Order[:8])
		}
	}
	// And their adjusted p-values must be small while null genes stay big.
	if res.AdjP[0] > 0.05 {
		t.Errorf("spiked gene adjp = %v, want < 0.05", res.AdjP[0])
	}
}

func TestSeedChangesRandomisedResults(t *testing.T) {
	x := synthMatrix(20, 12, 2, 8)
	lab := twoClass(6, 6)
	a, _ := serialRun(x, lab, Options{B: 100, Seed: 1})
	b, _ := serialRun(x, lab, Options{B: 100, Seed: 99})
	same := true
	for i := range a.RawP {
		if a.RawP[i] != b.RawP[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical raw p-values")
	}
}

func TestStoredAndOnTheFlyBothValid(t *testing.T) {
	// The two generators draw different permutations, but both must give
	// statistically consistent answers: the spiked gene lands at the top
	// with minimum p in both.
	x := synthMatrix(10, 12, 1, 9)
	lab := twoClass(6, 6)
	for _, fss := range []string{"y", "n"} {
		res, err := serialRun(x, lab, Options{B: 500, Seed: 4, FixedSeedSampling: fss})
		if err != nil {
			t.Fatalf("fss=%s: %v", fss, err)
		}
		if res.Order[0] != 0 {
			t.Errorf("fss=%s: spiked gene not first", fss)
		}
	}
}

// TestStoredGeneratorWideDesigns: the stored generator's bytes hold class
// labels, not column indices, so a two-sample design of 130 samples runs
// under fixed_seed_sampling "n" — the service engine equals the serial
// collective bit for bit — while an F design of 129 classes, whose labels do not fit a
// byte, is refused with an error by every entry point.
func TestStoredGeneratorWideDesigns(t *testing.T) {
	x, lab := synthMatrix(3, 130, 1, 77), twoClass(65, 65)
	fx, flab := synthMatrix(3, 258, 0, 78), make([]int, 258)
	for j := range flab {
		flab[j] = j / 2
	}
	opt := Options{Test: "t", FixedSeedSampling: "n", B: 60, Seed: 3}
	fopt := Options{Test: "f", FixedSeedSampling: "n", B: 60, Seed: 3}
	serial, err := collective(x, lab, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serialRun(fx, flab, fopt); err == nil || !strings.Contains(err.Error(), "129") {
		t.Errorf("maxt: 129 classes under stored sampling gave %v, want a refusal naming them", err)
	}
	for name, run := range map[string]func([][]float64, []int, Options) (*Result, error){
		"pmaxt": func(x [][]float64, l []int, o Options) (*Result, error) { return collective(x, l, 2, o) },
		"run": func(x [][]float64, l []int, o Options) (*Result, error) {
			return RunMatrix(mat(x), l, o, RunControl{NProcs: 2})
		},
	} {
		got, err := run(x, lab, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resultsEqual(t, name, serial, got)
		if _, err := run(fx, flab, fopt); err == nil || !strings.Contains(err.Error(), "129") {
			t.Errorf("%s: 129 classes under stored sampling gave %v, want a refusal naming them", name, err)
		}
	}
}
