package core

import (
	"context"
	"fmt"
	"time"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
)

// This file generalises the permutation loop for long-lived callers (the
// pmaxtd job server): the same bit-exact computation as PMaxTMatrix, but
// driven in windows so that a supervisor can observe progress, cancel the
// run between windows, and persist resumable checkpoints.  The kernel of
// each window is still divided among ranks as Figure 2 of the paper divides
// the whole sequence, except that the ranks claim their pieces as they go
// (fanOut) instead of owning a fixed share — counts merge by int64 addition,
// so the result is bit-identical to the serial run for every rank count,
// window size, resume point and claiming order.

// RunControl carries the service hooks of a supervised run.  The zero value
// is an uncheckpointed run, parallel over every CPU.
type RunControl struct {
	// Ctx cancels the run between windows; nil means never.  A cancelled
	// run returns the context's error: the last saved checkpoint is the
	// resume point.
	Ctx context.Context
	// NProcs is the number of goroutine ranks the kernel of each window is
	// shared among; values < 1 select runtime.GOMAXPROCS(0), i.e. every
	// available CPU.  Results are bit-identical at any rank count.
	NProcs int
	// Resume continues a previous run from its checkpoint.  The checkpoint
	// must pass Plan.Resume for the run's window (ErrCheckpointMismatch
	// otherwise).
	Resume *Checkpoint
	// Every is the window length of exact runs in permutations, their
	// granularity of progress, cancellation and checkpoints; < 1 is one
	// window.  It counts the plan's indices, the labellings the kernel
	// evaluates: a folded plan's window covers twice as many labellings.
	// Sequential runs use the plan's grid, DefaultSeqWindow.
	Every int64
	// Save, when non-nil, receives a snapshot after every window except
	// the one that completes the run or shard: the result follows at
	// once, and redoing that one window after a crash reproduces it bit
	// for bit.  Save runs on a goroutine of its own while the next window
	// computes, one call at a time, and has returned before the run does.
	// A failed write aborts the run at the next window boundary.  The run
	// then stands at the failed write's boundary, as it does when its
	// context is cancelled by the time Save returns: the window computed
	// beside that write is dropped.
	Save func(*Checkpoint) error
	// OnProgress, when non-nil, is called after every window with the
	// number of permutations processed so far (including resumed ones) and
	// the planned total, both in labellings: a folded plan's index counts
	// its whole orbit (Plan.Labellings).  After a checkpointed window it
	// is called once Save has returned without error, on Save's goroutine,
	// so the progress it reports is on disk; it and OnSeq are never called
	// concurrently with themselves.
	OnProgress func(done, total int64)
	// OnWindow, when non-nil, receives each kernel window's permutation
	// count and wall time right after the window computes — the timing
	// hook the serving layer feeds its per-stage histograms from.  It
	// runs on the run's supervising goroutine, beside the previous
	// window's Save, and must be cheap and allocation-free: it sits inside
	// the hot loop.
	OnWindow func(perms int64, elapsed time.Duration)
	// OnSeq, when non-nil, is called after every sequential-mode window
	// with the number of rows still accumulating and the per-row
	// permutation evaluations already saved relative to the planned total.
	// Never called in exact mode.  It follows OnProgress, on its goroutine.
	OnSeq func(activeRows int, permsSaved int64)
	// Scratch, when non-nil, supplies reusable per-rank working state.  A
	// long-lived caller (the jobs worker pool) passes one RunScratch per
	// worker so that consecutive jobs reuse kernel scratch, batch buffers
	// and partial-count vectors instead of reallocating them.
	Scratch *RunScratch
}

// RunScratch owns the per-rank mutable state of supervised runs: maxt
// scratch (including the permutation-batch buffers) and partial counts.
// It is resized on demand, may be reused across analyses of any shape or
// test, and must not be shared by concurrent runs.
type RunScratch struct {
	scratches []*maxt.Scratch
	partials  []*maxt.Counts
}

// ensure sizes the scratch for a run of prep over nprocs ranks.
func (rs *RunScratch) ensure(prep *maxt.Prep, nprocs int) {
	for len(rs.scratches) < nprocs {
		rs.scratches = append(rs.scratches, nil)
		rs.partials = append(rs.partials, nil)
	}
	for r := 0; r < nprocs; r++ {
		rs.scratches[r] = prep.ScratchFrom(rs.scratches[r])
		if rs.partials[r] == nil {
			rs.partials[r] = maxt.NewCounts(prep.Rows())
		} else {
			rs.partials[r].Reset(prep.Rows())
		}
	}
}

// RunMatrix executes the permutation testing function over x under the
// given control; x is not modified.  Results depend on the options only,
// not on NProcs, Every or any cancel/resume history, in both modes; an
// exact run is bit-identical to PMaxTMatrix, and NProcs 1 is the serial
// mt.maxT baseline.  It is Prepare + RunPrepared in one call; callers
// that run many analyses over one dataset should hold the Prepared
// themselves (or submit by dataset id to the job server) so the
// preparation is paid once, not per run.
func RunMatrix(x matrix.Matrix, classlabel []int, opt Options, ctl RunControl) (*Result, error) {
	// Observe cancellation before the expensive setup too (preparation
	// and the stored generator materialise the whole remaining run), so
	// a drained shutdown queue costs nothing per job.
	if ctl.Ctx != nil {
		if err := ctl.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run not started: %w", err)
		}
	}
	p, err := Prepare(x, classlabel, opt)
	if err != nil {
		return nil, err
	}
	res, err := RunPrepared(p, opt, ctl)
	if err != nil {
		return nil, err
	}
	p.ChargeBuild(&res.Profile)
	return res, nil
}

// CanonicalOptions validates opt and returns it with the documented
// defaults filled in — the form under which two option sets describe the
// same analysis iff they are equal.  A job server uses it both to reject
// bad submissions early and to build content-addressed cache keys.
func CanonicalOptions(opt Options) (Options, error) {
	cfg, err := parseOptions(opt)
	if err != nil {
		return opt, err
	}
	return Options{
		Test:              cfg.test.String(),
		Side:              cfg.side.String(),
		FixedSeedSampling: boolToYN(cfg.fixedSeed),
		B:                 cfg.b,
		NA:                cfg.na,
		Nonpara:           boolToYN(cfg.nonpara),
		Seed:              cfg.seed,
		MaxComplete:       cfg.maxComplete,
		// ScalarParams is preserved (it selects the collective's wire
		// protocol) but never hashed into content keys.
		ScalarParams: cfg.scalarParams,
		// Mode names the engine; the sequential knobs canonicalise to
		// their resolved values in sequential mode and to zero in exact
		// mode, where they cannot affect anything.  Content keys hash the
		// three fields only for sequential jobs, so every exact-mode key
		// is byte-identical to the keys earlier engines produced.
		Mode:         cfg.mode.String(),
		SeqAlpha:     cfg.seqAlpha,
		SeqTolerance: cfg.seqTol,
	}, nil
}
