package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/seqstop"
	"sprint/internal/stat"
)

// This file splits the expensive, input-only half of a permutation run —
// NA scrub, design validation, rank transform, per-row moment precompute,
// observed statistics, step-down order — out of the per-run path, so that
// a job server running a thousand analyses over one dataset (different
// seeds, different B) builds that state ONCE and shares it read-only
// across jobs and workers.  A Prepared depends only on (matrix, labels,
// test, side, nonpara, NA code); everything per-run (B, seed, rank count,
// checkpoints) stays in RunPrepared.

// Prepared is the immutable, shareable preparation of analyses over one
// (dataset, labels, test, side, nonpara, NA) tuple.  It is safe for
// concurrent use by any number of RunPrepared calls: maxt.Prep is
// read-only after construction and all per-run mutable state lives in
// RunControl scratch.
type Prepared struct {
	clean  matrix.Matrix
	labels []int
	design *stat.Design
	prep   *maxt.Prep

	// The prep-relevant option subset, recorded so RunPrepared can refuse
	// an options mismatch instead of silently computing the wrong test.
	test    stat.Test
	side    maxt.Side
	nonpara bool
	na      float64

	// scrubTime and buildTime record what Prepare spent, for ChargeBuild.
	scrubTime time.Duration
	buildTime time.Duration
}

// ChargeBuild adds what Prepare spent building p to prof's historical
// sections — scrub is pre-processing, design + prep build is data
// creation — exactly as the pre-split code timed them.  It is the rule
// for a run that built its own preparation; a run that reused a cached
// one does not call it, because it really did skip that work.
func (p *Prepared) ChargeBuild(prof *Profile) {
	prof.PreProcessing += p.scrubTime
	prof.CreateData += p.buildTime
}

// prepBuilds counts Prepare calls process-wide.  The jobs layer asserts
// prep reuse against it: N jobs on one cached dataset must add exactly 1.
var prepBuilds atomic.Int64

// PrepBuilds reports how many full preparations (scrub + rank transform +
// moment precompute + observed statistics) this process has built.
func PrepBuilds() int64 { return prepBuilds.Load() }

// Rows returns the number of matrix rows (genes) the preparation covers.
func (p *Prepared) Rows() int { return p.prep.Rows() }

// Labels returns the class labels the preparation was built under.  The
// slice is shared; callers must not modify it.
func (p *Prepared) Labels() []int { return p.labels }

// Prepare builds the shareable preparation of x under opt's prep-relevant
// options (Test, Side, Nonpara, NA).  x is not modified.  The returned
// value may be cached and shared by any number of concurrent RunPrepared
// calls whose options agree on that subset — B, Seed, FixedSeedSampling,
// MaxComplete and Mode are free to vary per run.
func Prepare(x matrix.Matrix, classlabel []int, opt Options) (*Prepared, error) {
	cfg, err := parseOptions(opt)
	if err != nil {
		return nil, err
	}
	if x.IsEmpty() {
		return nil, fmt.Errorf("core: empty input matrix")
	}
	start := time.Now()
	clean := scrubNA(x, cfg.na)
	scrubTime := time.Since(start)

	start = time.Now()
	design, err := stat.NewDesign(cfg.test, classlabel)
	if err != nil {
		return nil, err
	}
	prep, err := maxt.NewPrepMatrix(clean, design, cfg.side, cfg.nonpara)
	if err != nil {
		return nil, err
	}
	prepBuilds.Add(1)
	return &Prepared{
		clean:  clean,
		labels: append([]int(nil), classlabel...),
		design: design,
		prep:   prep,
		test:   cfg.test, side: cfg.side, nonpara: cfg.nonpara, na: cfg.na,
		scrubTime: scrubTime,
		buildTime: time.Since(start),
	}, nil
}

// ErrPrepMismatch reports a RunPrepared call whose options disagree with
// the preparation on a prep-relevant field.
var ErrPrepMismatch = fmt.Errorf("core: options do not match the prepared state (test, side, nonpara or NA changed)")

// compatible checks that opt's prep-relevant subset matches p, naming the
// field that drifted — a cluster fingerprint mismatch is debuggable only
// if the error says WHICH option disagreed.  errors.Is(err,
// ErrPrepMismatch) holds for every branch.
func (p *Prepared) compatible(cfg config) error {
	switch {
	case cfg.test != p.test:
		return fmt.Errorf("%w: test drifted (options have %q, prepared state has %q)", ErrPrepMismatch, cfg.test, p.test)
	case cfg.side != p.side:
		return fmt.Errorf("%w: side drifted (options have %q, prepared state has %q)", ErrPrepMismatch, cfg.side, p.side)
	case cfg.nonpara != p.nonpara:
		return fmt.Errorf("%w: nonpara drifted (options have %v, prepared state has %v)", ErrPrepMismatch, cfg.nonpara, p.nonpara)
	case cfg.na != p.na:
		return fmt.Errorf("%w: NA code drifted (options have %v, prepared state has %v)", ErrPrepMismatch, cfg.na, p.na)
	}
	return nil
}

// RunPrepared executes the permutation testing function over a shared
// preparation: the same bit-exact computation as RunMatrix with the same
// inputs, minus every cost Prepare already paid.  opt must agree with the
// preparation on Test, Side, Nonpara and NA (ErrPrepMismatch otherwise);
// all other options select this run's permutation plan.  The returned
// profile charges only work this call performed — a served-from-cache
// preparation reports (near-)zero pre-processing and data-creation time,
// which is the point.
func RunPrepared(p *Prepared, opt Options, ctl RunControl) (*Result, error) {
	if ctl.Ctx != nil {
		if err := ctl.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run not started: %w", err)
		}
	}
	var prof Profile

	start := time.Now()
	cfg, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	prep, totalB := p.prep, plan.TotalB

	nprocs := ctl.NProcs
	if nprocs < 1 {
		nprocs = runtime.GOMAXPROCS(0)
	}

	counts, frozen, err := plan.Resume(ctl.Resume, 0, totalB)
	if err != nil {
		return nil, err
	}
	first := counts.B
	var tracker *seqstop.Tracker
	if plan.seq != nil {
		tracker = seqstop.NewTracker(*plan.seq, prep.Order, prep.Valid)
		if err := tracker.Restore(frozen); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
		}
	}

	// One generator covering every remaining permutation; the window
	// ranks index into their sub-chunks of it.
	gen, err := p.generatorFor(cfg, plan, first, totalB)
	if err != nil {
		return nil, err
	}
	prof.CreateData = time.Since(start)

	kernelStart := time.Now()
	if _, err := processRange(p, plan, gen, counts, first, totalB, tracker, ctl); err != nil {
		return nil, err
	}
	prof.MainKernel = time.Since(kernelStart)

	start = time.Now()
	if tracker != nil {
		frozen = tracker.BEff()
	}
	res, err := p.finalize(plan, counts, frozen)
	if err != nil {
		return nil, err
	}
	prof.ComputePValues = time.Since(start)
	res.NProcs, res.Profile, res.KernelMax = nprocs, prof, prof.MainKernel
	return res, nil
}
