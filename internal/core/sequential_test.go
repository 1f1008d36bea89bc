package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sprint/internal/maxt"
	"sprint/internal/microarray"
	"sprint/internal/seqstop"
)

// seqTestData builds a dataset large enough that the stopping rule has
// room to act (most rows are null, a few are strongly differential).
func seqTestData(t *testing.T, seed uint64) (*microarray.Dataset, Options) {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 200, Samples: 30, Classes: 2,
		DiffFraction: 0.05, EffectSize: 2.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.B = 50000
	opt.Seed = 99
	opt.Mode = ModeSequential
	return data, opt
}

// TestExactModeBitwiseInvariant pins the tentpole's compatibility claim:
// an explicit Mode "exact" is byte-for-byte the legacy no-mode engine, for
// every test statistic, sampling mode and entry point.
func TestExactModeBitwiseInvariant(t *testing.T) {
	data, opt := runTestData(t)
	for _, test := range []string{"t", "t.equalvar", "wilcoxon", "f"} {
		for _, fss := range []string{"y", "n"} {
			legacy := opt
			legacy.Test, legacy.FixedSeedSampling = test, fss
			legacy.Mode = ""
			want, err := collective(data.X, data.Labels, 1, legacy)
			if err != nil {
				t.Fatal(err)
			}
			explicit := legacy
			explicit.Mode = ModeExact
			got, err := serialRun(data.X, data.Labels, explicit)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want)
			if got.Sequential() || got.BEff != nil || got.SeqPermsSaved() != 0 {
				t.Fatalf("exact result carries sequential metadata: mode=%q bEff=%v", got.Mode, got.BEff)
			}
			got, err = RunMatrix(mat(data.X), data.Labels, explicit, RunControl{NProcs: 3, Every: 128})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want)
		}
	}
}

// TestSequentialMatchesExactWithinTolerance checks the engine's accuracy
// contract over three independent datasets: every reported p-value (raw
// and adjusted) is within the confidence-sequence tolerance of the exact
// engine's estimate at the full planned B.
func TestSequentialMatchesExactWithinTolerance(t *testing.T) {
	for _, seed := range []uint64{3, 41, 77} {
		data, opt := seqTestData(t, seed)
		exactOpt := opt
		exactOpt.Mode = ModeExact
		exact, err := RunMatrix(mat(data.X), data.Labels, exactOpt, RunControl{NProcs: 2})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{NProcs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Sequential() || seq.PlannedB != opt.B {
			t.Fatalf("seed %d: not a sequential result: mode=%q plannedB=%d", seed, seq.Mode, seq.PlannedB)
		}
		// Both estimates individually sit within the 0.02 tolerance of the
		// truth with high probability; their gap is bounded by the sum.
		// The runs are fully deterministic, so this cannot flake.
		const bound = 2 * 0.02
		var maxRaw, maxAdj float64
		for i := range exact.RawP {
			if math.IsNaN(exact.RawP[i]) || math.IsNaN(seq.RawP[i]) {
				continue
			}
			if d := math.Abs(exact.RawP[i] - seq.RawP[i]); d > maxRaw {
				maxRaw = d
			}
			if d := math.Abs(exact.AdjP[i] - seq.AdjP[i]); d > maxAdj {
				maxAdj = d
			}
		}
		if maxRaw > bound || maxAdj > bound {
			t.Fatalf("seed %d: sequential drifted beyond tolerance: max|Δraw|=%v max|Δadj|=%v", seed, maxRaw, maxAdj)
		}
		// The point of the mode: it must actually run fewer permutations.
		if seq.B >= exact.B {
			t.Fatalf("seed %d: sequential ran %d of %d planned permutations — no saving", seed, seq.B, exact.B)
		}
		if seq.SeqPermsSaved() <= 0 || seq.SeqRowsStopped() == 0 {
			t.Fatalf("seed %d: savings metadata empty: saved=%d stopped=%d", seed, seq.SeqPermsSaved(), seq.SeqRowsStopped())
		}
		// Order and statistics never depend on the mode.
		for i := range exact.Order {
			if exact.Order[i] != seq.Order[i] {
				t.Fatalf("seed %d: significance order diverged at %d", seed, i)
			}
		}
	}
}

// TestSequentialResumeDeterministic pins the checkpoint contract: a
// sequential run cancelled mid-flight and resumed with the same window
// length finishes bit-identical to an uninterrupted run.
func TestSequentialResumeDeterministic(t *testing.T) {
	data, opt := seqTestData(t, 11)
	const every = 2048

	want, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{NProcs: 2, Every: every})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var last *Checkpoint
	_, err = RunMatrix(mat(data.X), data.Labels, opt, RunControl{
		Ctx: ctx, NProcs: 2, Every: every,
		Save: func(c *Checkpoint) error {
			last = c
			if c.Done >= 2*every {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if last == nil || last.BEff == nil {
		t.Fatal("sequential checkpoint lacks freeze state")
	}

	got, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{NProcs: 3, Every: every, Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if got.B != want.B || got.SeqPermsSaved() != want.SeqPermsSaved() {
		t.Fatalf("resumed run: B=%d saved=%d, uninterrupted: B=%d saved=%d",
			got.B, got.SeqPermsSaved(), want.B, want.SeqPermsSaved())
	}
	for i, be := range want.BEff {
		if got.BEff[i] != be {
			t.Fatalf("b_eff[%d] = %d after resume, want %d", i, got.BEff[i], be)
		}
	}
}

// TestSequentialRejections pins every entry point that must refuse the
// sequential mode, and that the refusals name what went wrong.
func TestSequentialRejections(t *testing.T) {
	data, opt := seqTestData(t, 5)

	// Complete enumeration needs a column count whose label permutations
	// fit under MaxComplete, so the sequential rejection (not the size
	// cap) is what fires.
	small, smallOpt := runTestData(t)
	complete := smallOpt
	complete.Mode = ModeSequential
	complete.B = 0
	if _, err := serialRun(small.X, small.Labels, complete); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("complete enumeration accepted sequential mode: %v", err)
	}

	if _, err := collective(data.X, data.Labels, 2, opt); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("PMaxT collective accepted sequential mode: %v", err)
	}

	p, err := Prepare(mat(data.X), data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(p, opt, 0, 1024, RunControl{}); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("RunShard accepted sequential mode: %v", err)
	}

	bogus := opt
	bogus.Mode = "adaptive"
	if _, err := serialRun(data.X, data.Labels, bogus); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestExactResumeRejectsSequentialCheckpoint: an exact run handed a
// checkpoint carrying freeze state must refuse it naming the mode, even
// if every other identity field happens to line up.
func TestExactResumeRejectsSequentialCheckpoint(t *testing.T) {
	data, opt := runTestData(t)
	var last *Checkpoint
	_, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{
		Every: 100,
		Save:  func(c *Checkpoint) error { last = c; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	forged := *last
	forged.BEff = make([]int64, len(last.Raw))
	_, err = RunMatrix(mat(data.X), data.Labels, opt, RunControl{Resume: &forged})
	if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("exact resume of sequential freeze state: %v, want mode mismatch", err)
	}

	// And the symmetric direction: a sequential run never accepts an
	// exact checkpoint — the fingerprints differ by construction.
	seqOpt := opt
	seqOpt.Mode = ModeSequential
	if _, err := RunMatrix(mat(data.X), data.Labels, seqOpt, RunControl{Resume: last}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("sequential resume of exact checkpoint: %v", err)
	}
}

// TestSeqAllSettledAndFinalize exercises the coordinator-facing helpers on
// hand-built merge ledgers.
func TestSeqAllSettledAndFinalize(t *testing.T) {
	data, opt := seqTestData(t, 13)
	p, err := Prepare(mat(data.X), data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRun(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(data.X)

	counts := maxt.NewCounts(rows)
	counts.B = 256
	// Wide-open counts at a tiny b: nothing settles.
	for i := range counts.Raw {
		counts.Raw[i] = 128
		counts.Adj[i] = 128
	}
	if SeqAllSettled(p, plan, counts, nil) {
		t.Fatal("p̂=0.5 at b=256 reported settled")
	}
	// Freezing every row settles the job whatever its counts.
	all := make([]int64, rows)
	for i := range all {
		all[i] = 128
	}
	if !SeqAllSettled(p, plan, counts, all) {
		t.Fatal("all rows frozen but not settled")
	}
	// All-zero counts at a large b: every row certifies significant.
	clear(counts.Raw)
	clear(counts.Adj)
	counts.B = 1 << 20
	if counts.B > opt.B {
		counts.B = opt.B
	}
	if !SeqAllSettled(p, plan, counts, nil) {
		t.Fatal("all-zero counts at large b not settled")
	}

	res, err := FinalizeCounts(p, opt, counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sequential() || res.PlannedB != opt.B || res.B != counts.B {
		t.Fatalf("finalized metadata: mode=%q plannedB=%d B=%d", res.Mode, res.PlannedB, res.B)
	}
	for i, bp := range res.RawP {
		if math.IsNaN(res.Stat[i]) {
			continue
		}
		if bp != 0 || res.BEff[i] != counts.B {
			t.Fatalf("row %d: RawP %v over %d permutations, want 0 over %d", i, bp, res.BEff[i], counts.B)
		}
	}
	// A frozen row keeps its own effective count.
	frozen := make([]int64, rows)
	r0 := p.prep.Order[0]
	frozen[r0] = 512
	counts.Raw[r0] = 256
	res, err = FinalizeCounts(p, opt, counts, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if res.BEff[r0] != 512 || res.RawP[r0] != 0.5 {
		t.Fatalf("frozen row: RawP %v over %d, want 0.5 over 512", res.RawP[r0], res.BEff[r0])
	}

	exactOpt := opt
	exactOpt.Mode = ModeExact
	pExact, err := Prepare(mat(data.X), data.Labels, exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	exactPlan, err := PlanRun(pExact, exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	if SeqAllSettled(pExact, exactPlan, counts, nil) {
		t.Fatal("an exact plan settled")
	}
	short := maxt.NewCounts(rows)
	short.B = exactOpt.B - 1
	if _, err := FinalizeCounts(pExact, exactOpt, short, nil); err == nil {
		t.Fatal("exact finalize accepted counts short of the plan")
	}
	if _, err := FinalizeCounts(pExact, exactOpt, counts, frozen); err == nil {
		t.Fatal("exact finalize accepted freeze state")
	}
	bad := maxt.NewCounts(rows)
	bad.B = opt.B + 1
	if _, err := FinalizeCounts(p, opt, bad, nil); err == nil {
		t.Fatal("merged B beyond the plan accepted")
	}
	if _, err := FinalizeCounts(p, opt, counts, frozen[:1]); err == nil {
		t.Fatal("short frozen vector accepted")
	}
}

// TestSequentialCoverage holds sequential mode to the guarantee seqstop
// states: with probability at least 1 − δ, EVERY row's reported p-value
// is within the tolerance of its exact p-value.  The truth is the
// complete enumeration (DESIGN §3h defines the exact p-value of a
// sampled run); each design runs sequential mode under many permutation
// seeds, and a seed misses when any row's raw (or, separately, adjusted)
// p-value is off by more than the tolerance.  The miss rate must stay
// within δ plus a one-sided binomial allowance at level 10⁻³.  Every run
// is deterministic, so the test cannot flake.
func TestSequentialCoverage(t *testing.T) {
	const (
		seeds = 200
		tol   = seqstop.DefaultTolerance
		delta = seqstop.DefaultDelta
	)
	allow := binomialUpper(seeds, delta, 1e-3)
	for _, tc := range []struct {
		name string
		gen  microarray.GenOptions
		test string
		b    int64
		ties bool
	}{
		// 10 vs 10: C(20, 10) = 184 756 labellings.
		{"two-sample", microarray.GenOptions{Genes: 100, Samples: 20, Classes: 2,
			DiffFraction: 0.1, EffectSize: 2.5, Seed: 5}, "t", 100000, false},
		// 17 pairs: 2^17 = 131 072 sign flips; values rounded to one
		// decimal (ties) with 5 % missing.
		{"paired, ties and NAs", microarray.GenOptions{Genes: 30, Samples: 34, Classes: 2,
			DiffFraction: 0.1, EffectSize: 2.5, MissingRate: 0.05, Paired: true, Seed: 6}, "pairt", 100000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := microarray.Generate(tc.gen)
			if err != nil {
				t.Fatal(err)
			}
			if tc.ties {
				for _, row := range data.X {
					for j, v := range row {
						row[j] = math.Round(v*10) / 10
					}
				}
			}
			opt := DefaultOptions()
			opt.Test = tc.test
			p, err := Prepare(mat(data.X), data.Labels, opt)
			if err != nil {
				t.Fatal(err)
			}
			exactOpt := opt
			exactOpt.B = 0
			truth, err := RunPrepared(p, exactOpt, RunControl{NProcs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !truth.Complete {
				t.Fatal("truth is not the complete enumeration")
			}
			seqOpt := opt
			seqOpt.B, seqOpt.Mode = tc.b, ModeSequential
			var missRaw, missAdj int
			var worstRaw, worstAdj float64
			var sumB int64
			for s := uint64(1); s <= seeds; s++ {
				seqOpt.Seed = s
				res, err := RunPrepared(p, seqOpt, RunControl{NProcs: 2})
				if err != nil {
					t.Fatal(err)
				}
				var errRaw, errAdj float64
				for i := range truth.RawP {
					if math.IsNaN(truth.RawP[i]) {
						continue
					}
					errRaw = max(errRaw, absErr(res.RawP[i], truth.RawP[i]))
					errAdj = max(errAdj, absErr(res.AdjP[i], truth.AdjP[i]))
				}
				if errRaw > tol {
					missRaw++
				}
				if errAdj > tol {
					missAdj++
				}
				worstRaw, worstAdj = max(worstRaw, errRaw), max(worstAdj, errAdj)
				sumB += res.B
			}
			t.Logf("%d seeds: misses raw %d adj %d (allowed %d), worst error raw %.4f adj %.4f, mean stop b %d",
				seeds, missRaw, missAdj, allow, worstRaw, worstAdj, sumB/seeds)
			if missRaw > allow || missAdj > allow {
				t.Fatalf("coverage broken: %d raw and %d adjusted misses in %d seeds, allowed %d",
					missRaw, missAdj, seeds, allow)
			}
		})
	}
}

// absErr is |got − want|, with a NaN estimate of a defined p-value as
// wrong as it gets.
func absErr(got, want float64) float64 {
	if math.IsNaN(got) {
		return 1
	}
	return math.Abs(got - want)
}

// binomialUpper returns the smallest m with P(X > m) <= level for
// X ~ Binomial(n, p): the most misses a rate-p guarantee explains.
func binomialUpper(n int, p, level float64) int {
	pmf := math.Pow(1-p, float64(n)) // P(X = 0)
	cdf := pmf
	m := 0
	for 1-cdf > level && m < n {
		pmf *= float64(n-m) / float64(m+1) * p / (1 - p)
		cdf += pmf
		m++
	}
	return m
}
