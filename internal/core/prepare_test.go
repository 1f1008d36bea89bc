package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/rng"
)

// prepTestMatrix builds a deterministic genes×samples matrix with NA codes
// and NaN cells sprinkled in, plus balanced two-class labels.
func prepTestMatrix(genes, samples int) (matrix.Matrix, []int) {
	m := matrix.New(genes, samples)
	src := rng.New(4242)
	for i := range m.Data {
		switch {
		case i%37 == 5:
			m.Data[i] = DefaultNA // the multtest missing code
		case i%53 == 7:
			m.Data[i] = math.NaN()
		default:
			m.Data[i] = src.NormFloat64()
		}
	}
	labels := make([]int, samples)
	for j := samples / 2; j < samples; j++ {
		labels[j] = 1
	}
	return m, labels
}

func sameResultBits(t *testing.T, name string, got, want *Result) {
	t.Helper()
	check := func(field string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s %s: length %d, want %d", name, field, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s %s[%d]: %v != %v", name, field, i, g[i], w[i])
			}
		}
	}
	check("Stat", got.Stat, want.Stat)
	check("RawP", got.RawP, want.RawP)
	check("AdjP", got.AdjP, want.AdjP)
	if got.B != want.B || got.Complete != want.Complete {
		t.Fatalf("%s: B/Complete %d/%v, want %d/%v", name, got.B, got.Complete, want.B, want.Complete)
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s Order[%d]: %d != %d", name, i, got.Order[i], want.Order[i])
		}
	}
}

// TestRunPreparedMatchesRunMatrix: one Prepared reused across runs with
// different per-run options must reproduce RunMatrix bitwise for each.
func TestRunPreparedMatchesRunMatrix(t *testing.T) {
	x, labels := prepTestMatrix(60, 10)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"welch", Options{Test: "t", B: 400, Seed: 11}},
		{"wilcoxon-upper", Options{Test: "wilcoxon", Side: "upper", B: 300, Seed: 5}},
		{"nonpara-complete", Options{Test: "t", Nonpara: "y", B: 0, MaxComplete: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Prepare(x, labels, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunMatrix(x, labels, tc.opt, RunControl{NProcs: 2, Every: 64})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunPrepared(p, tc.opt, RunControl{NProcs: 2, Every: 64})
			if err != nil {
				t.Fatal(err)
			}
			sameResultBits(t, tc.name, got, want)

			// A second run over the same Prepared with a different seed
			// and B must also match its from-scratch twin: the Prepared
			// is not consumed by a run.
			opt2 := tc.opt
			if opt2.B > 0 {
				opt2.Seed += 100
				opt2.B += 50
			}
			want2, err := RunMatrix(x, labels, opt2, RunControl{NProcs: 1})
			if err != nil {
				t.Fatal(err)
			}
			got2, err := RunPrepared(p, opt2, RunControl{NProcs: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameResultBits(t, tc.name+"/reuse", got2, want2)
		})
	}
}

// TestRunPreparedConcurrent: many goroutines sharing one Prepared (the
// job-server pattern: one dataset, many seeds) must each get the result
// their own RunMatrix would have produced.
func TestRunPreparedConcurrent(t *testing.T) {
	x, labels := prepTestMatrix(40, 8)
	opt := Options{Test: "t", B: 200}
	p, err := Prepare(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opt
			o.Seed = uint64(i)
			results[i], errs[i] = RunPrepared(p, o, RunControl{NProcs: 2, Every: 32})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		o := opt
		o.Seed = uint64(i)
		want, err := RunMatrix(x, labels, o, RunControl{NProcs: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameResultBits(t, "concurrent", results[i], want)
	}
}

// TestRunPreparedMismatch: options that change the preparation itself must
// be refused, not silently recomputed with the wrong prep.
func TestRunPreparedMismatch(t *testing.T) {
	x, labels := prepTestMatrix(30, 8)
	p, err := Prepare(x, labels, Options{Test: "t", B: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{Test: "t.equalvar", B: 100},
		{Test: "t", Side: "upper", B: 100},
		{Test: "t", Nonpara: "y", B: 100},
		{Test: "t", NA: -1.5, B: 100},
	} {
		if _, err := RunPrepared(p, bad, RunControl{}); !errors.Is(err, ErrPrepMismatch) {
			t.Errorf("options %+v: error %v, want ErrPrepMismatch", bad, err)
		}
	}
	// Per-run knobs must NOT be refused.
	for _, ok := range []Options{
		{Test: "t", B: 50, Seed: 9},
		{Test: "t", B: 100, FixedSeedSampling: "n"},
		{Test: "t", B: 0},
	} {
		if _, err := RunPrepared(p, ok, RunControl{}); err != nil {
			t.Errorf("options %+v: unexpected error %v", ok, err)
		}
	}
}

// TestPrepBuildsCounter: the process-wide counter must tick once per
// Prepare and not at all for RunPrepared.
func TestPrepBuildsCounter(t *testing.T) {
	x, labels := prepTestMatrix(20, 8)
	opt := Options{Test: "t", B: 60}
	before := PrepBuilds()
	p, err := Prepare(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := PrepBuilds() - before; got != 1 {
		t.Fatalf("Prepare ticked the counter by %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := RunPrepared(p, opt, RunControl{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := PrepBuilds() - before; got != 1 {
		t.Fatalf("3 RunPrepared calls moved the counter to +%d, want +1", got)
	}
}

// TestRunPreparedProfileSkipsPrep: a run over a shared preparation must
// not charge pre-processing (the scrub) — proof at the profile level that
// cache hits skip the work, not merely the accounting.
func TestRunPreparedProfileSkipsPrep(t *testing.T) {
	x, labels := prepTestMatrix(30, 8)
	opt := Options{Test: "t", B: 100}
	p, err := Prepare(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPrepared(p, opt, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.PreProcessing != 0 {
		t.Errorf("RunPrepared charged %v pre-processing, want 0", res.Profile.PreProcessing)
	}
}
