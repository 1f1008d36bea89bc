// Package core implements pmaxT, the SPRINT parallel permutation testing
// function, twice: PMaxTMatrix is the paper's collective, following the six
// execution steps of Section 3.2, and Prepare + RunPrepared is the service
// engine, whose one-rank run is the serial mt.maxT baseline.  Both report
// the five timed sections of Tables I–V (pre-processing, broadcast
// parameters, create data, main kernel, compute p-values).
package core

import (
	"fmt"
	"math"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/perm"
	"sprint/internal/seqstop"
	"sprint/internal/stat"
)

// DefaultNA is the missing-value code of the multtest package (R's
// .mt.naNUM).  Input cells equal to the configured NA code — or NaN — are
// treated as missing and excluded from the computations.
const DefaultNA = -93074815.62

// DefaultMaxComplete caps the size of a complete enumeration requested with
// B = 0.  When the exact count exceeds the cap, the run fails with an error
// asking for an explicit smaller B, matching mt.maxT's behaviour ("the user
// is asked to explicitly request a smaller number of permutations").
const DefaultMaxComplete = 1 << 22

// DefaultBatchSize is the permutation batch the main kernel evaluates per
// matrix pass.  A labelling's statistics are bitwise independent of the
// batch it rides in, so the batch is purely a performance choice: large
// enough to amortise each row load over many permutations, small enough
// that the per-batch label and output buffers stay cache-resident.  It is
// a constant, not an option: the sequential engine's stop grid rounds up
// to it, so a caller-chosen batch would change sequential results under
// one content key.
const DefaultBatchSize = 64

// Options mirrors the R signature
//
//	pmaxT(X, classlabel, test="t", side="abs", fixed.seed.sampling="y",
//	      B=10000, na=.mt.naNUM, nonpara="n")
//
// String-typed fields take the same values as their R counterparts so that
// existing mt.maxT call sites translate one-to-one.  Zero values select the
// documented defaults.
type Options struct {
	// Test selects the statistic: "t" (Welch, default), "t.equalvar",
	// "wilcoxon", "f", "pairt" or "blockf".
	Test string
	// Side selects the rejection region: "abs" (default), "upper" or
	// "lower".
	Side string
	// FixedSeedSampling chooses between the on-the-fly generator ("y",
	// default) and storing the permutations in memory ("n").  Complete
	// enumerations always run on the fly, as in the original code.
	FixedSeedSampling string
	// B is the permutation count, including the observed labelling.
	// B = 0 requests the complete enumeration.  Defaults to 10000 when
	// left at -1; an explicit 0 means complete.
	B int64
	// NA is the missing-value code.  Cells equal to NA (or NaN) are
	// excluded.  Defaults to DefaultNA.
	NA float64
	// Nonpara enables rank-based nonparametric statistics: "n" (default)
	// or "y".
	Nonpara string
	// Seed initialises the permutation RNG.  Runs with equal seeds and
	// equal B produce identical results at any process count.
	Seed uint64
	// MaxComplete overrides DefaultMaxComplete when positive.
	MaxComplete int64
	// ScalarParams, when true, broadcasts the string options as
	// pre-encoded scalar codes instead of length-prefixed strings — the
	// paper's future-work item 3.  Results are identical; only the
	// "Broadcast parameters" section changes.
	ScalarParams bool
	// Mode selects the permutation engine: "exact" (the default) runs
	// every planned permutation and is bitwise-unchanged from earlier
	// engines; "sequential" stops rows — and whole jobs — early, as soon
	// as a Besag–Clifford rule plus an anytime-valid confidence sequence
	// pin their p-values within SeqTolerance (see internal/seqstop).
	// Sequential results report a per-row effective permutation count and
	// are NOT bitwise reproductions of the exact result; they are the
	// same estimator over a row-specific prefix of the same permutation
	// sequence.  Sequential mode requires sampled permutations: complete
	// enumerations (B = 0, or a complete count at most B) are exact by
	// definition and are rejected.
	Mode string
	// SeqAlpha is sequential mode's significance threshold of interest
	// (the API's target_alpha): rows certified below it may stop before
	// accumulating the Besag–Clifford exceedance count.  0 selects the
	// default (0.05).  Ignored — and canonicalised away — in exact mode.
	SeqAlpha float64
	// SeqTolerance is sequential mode's absolute p-value error budget
	// (the API's p_tolerance): every reported p-value is within this of
	// its exact value with high probability, simultaneously across rows.
	// 0 selects the default (0.02).  Ignored in exact mode.
	SeqTolerance float64
}

// DefaultOptions returns the documented mt.maxT defaults.
func DefaultOptions() Options {
	return Options{
		Test:              "t",
		Side:              "abs",
		FixedSeedSampling: "y",
		B:                 10000,
		NA:                DefaultNA,
		Nonpara:           "n",
	}
}

// ModeExact and ModeSequential are the canonical Options.Mode values.
const (
	ModeExact      = "exact"
	ModeSequential = "sequential"
)

// runMode is the validated engine-mode knob.
type runMode int

const (
	// modeExact runs every planned permutation (the historical engine).
	modeExact runMode = iota
	// modeSequential early-stops rows and jobs under the seqstop rules.
	modeSequential
)

var modeNames = map[runMode]string{
	modeExact:      ModeExact,
	modeSequential: ModeSequential,
}

func (m runMode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("runMode(%d)", int(m))
}

func parseRunMode(s string) (runMode, error) {
	if s == "" {
		return modeExact, nil
	}
	for m, name := range modeNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want exact or sequential)", s)
}

// config is the validated, enum-typed form of Options.
type config struct {
	test         stat.Test
	side         maxt.Side
	fixedSeed    bool
	b            int64
	na           float64
	nonpara      bool
	seed         uint64
	maxComplete  int64
	scalarParams bool
	mode         runMode
	seqAlpha     float64
	seqTol       float64
}

// completeGen builds the complete-enumeration generator: the
// revolving-door Gray order where the design admits it (enabling the
// delta kernel), the combinadic order otherwise.  The order is a function
// of the design alone, so the checkpoint fingerprint's order bit is too.
func completeGen(d *stat.Design) (perm.Generator, error) {
	if perm.RevolvingDoorOK(d) {
		return perm.NewRevolvingDoor(d)
	}
	return perm.NewComplete(d)
}

// parseOptions validates opt and fills defaults, mirroring the parameter
// checking of the pre-processing step (Step 1).
func parseOptions(opt Options) (config, error) {
	var cfg config
	if opt.Test == "" {
		opt.Test = "t"
	}
	if opt.Side == "" {
		opt.Side = "abs"
	}
	if opt.FixedSeedSampling == "" {
		opt.FixedSeedSampling = "y"
	}
	if opt.Nonpara == "" {
		opt.Nonpara = "n"
	}
	if opt.NA == 0 {
		opt.NA = DefaultNA
	}
	if opt.MaxComplete == 0 {
		opt.MaxComplete = DefaultMaxComplete
	}
	var err error
	if cfg.test, err = stat.ParseTest(opt.Test); err != nil {
		return cfg, err
	}
	if cfg.side, err = maxt.ParseSide(opt.Side); err != nil {
		return cfg, err
	}
	switch opt.FixedSeedSampling {
	case "y":
		cfg.fixedSeed = true
	case "n":
		cfg.fixedSeed = false
	default:
		return cfg, fmt.Errorf("core: fixed.seed.sampling must be \"y\" or \"n\", got %q", opt.FixedSeedSampling)
	}
	switch opt.Nonpara {
	case "y":
		cfg.nonpara = true
	case "n":
		cfg.nonpara = false
	default:
		return cfg, fmt.Errorf("core: nonpara must be \"y\" or \"n\", got %q", opt.Nonpara)
	}
	if opt.B < 0 {
		return cfg, fmt.Errorf("core: B = %d must be >= 0 (0 requests complete permutations)", opt.B)
	}
	if opt.MaxComplete < 0 {
		return cfg, fmt.Errorf("core: MaxComplete must be positive")
	}
	if cfg.mode, err = parseRunMode(opt.Mode); err != nil {
		return cfg, err
	}
	if cfg.mode == modeSequential {
		if opt.B == 0 {
			// Catch the explicit request here so services reject it at
			// submission; the auto case (a complete count at most B) is
			// only decidable once the design is known and fails in planFor.
			return cfg, fmt.Errorf("core: mode \"sequential\" requires sampled permutations (B > 0); B = 0 requests the complete enumeration, which is exact by definition")
		}
		sc, err := seqstop.New(opt.SeqAlpha, opt.SeqTolerance, 1)
		if err != nil {
			return cfg, fmt.Errorf("core: %w", err)
		}
		cfg.seqAlpha, cfg.seqTol = sc.Alpha, sc.Tolerance
	}
	cfg.b = opt.B
	cfg.na = opt.NA
	cfg.seed = opt.Seed
	cfg.maxComplete = opt.MaxComplete
	cfg.scalarParams = opt.ScalarParams
	return cfg, nil
}

// planPermutations decides between complete enumeration and random
// sampling, following mt.maxT: B = 0 demands the complete enumeration (and
// fails loudly if it exceeds the limit); B > 0 uses random sampling unless
// the complete enumeration is smaller, in which case exact enumeration is
// both cheaper and statistically stronger.  A sampled plan under
// fixed_seed_sampling "n" is refused when the stored generator cannot hold
// the design's class labels in its bytes.
func planPermutations(cfg config, d *stat.Design) (useComplete bool, total int64, err error) {
	count, fits := perm.CompleteCount(d)
	if cfg.b == 0 {
		if !fits || count > cfg.maxComplete {
			countStr := "more than 2^63"
			if fits {
				countStr = fmt.Sprintf("%d", count)
			}
			return false, 0, fmt.Errorf(
				"core: complete permutations (%s) exceed the maximum allowed limit (%d); please request a smaller number of permutations explicitly via B",
				countStr, cfg.maxComplete)
		}
		return true, count, nil
	}
	if fits && count <= cfg.b {
		return true, count, nil
	}
	if !cfg.fixedSeed && d.K > math.MaxInt8+1 { // perm.NewStored's label bytes
		return false, 0, fmt.Errorf("core: fixed_seed_sampling \"n\" stores class labels in a byte and supports at most %d classes, the design has %d; use fixed_seed_sampling \"y\"", math.MaxInt8+1, d.K)
	}
	return false, cfg.b, nil
}

// SetKernel selects the accumulation kernel by name — "auto" (the best
// the CPU supports) or an ISA, one of stat.KernelNames — returning the
// name now active.  The choice is process-wide, meant for startup (CLI
// flags); it never changes results, only wall time, because every kernel
// performs the identical per-(row, permutation) IEEE-754 chains.
func SetKernel(name string) (string, error) {
	isa, err := stat.SetKernelISA(name)
	return isa.String(), err
}

// KernelName reports the active accumulation kernel, an ISA name from
// stat.KernelNames.
func KernelName() string { return stat.ActiveKernelISA().String() }

// PermOrderPolicy describes the one enumeration order policy, surfaced
// by the pmaxtd /stats endpoint.
const PermOrderPolicy = "auto: revolving-door (delta kernel) for complete two-sample enumerations, combinadic otherwise"

// scrubNA returns m with the NA code replaced by NaN.  A pure scan runs
// first: when no cell matches the NA code the input is returned
// unchanged — no copy at all.  NaN cells are already in their scrubbed
// form (NaN never equals the code), so only code-bearing matrices pay
// the single flat copy.  The scrub happens once on the master (part of
// pre-processing); workers receive the cleaned matrix.
func scrubNA(m matrix.Matrix, na float64) matrix.Matrix {
	dirty := false
	for _, v := range m.Data {
		if v == na {
			dirty = true
			break
		}
	}
	if !dirty {
		return m
	}
	out := matrix.Matrix{Data: make([]float64, len(m.Data)), Rows: m.Rows, Cols: m.Cols}
	for i, v := range m.Data {
		if v == na {
			out.Data[i] = math.NaN()
		} else {
			out.Data[i] = v
		}
	}
	return out
}
