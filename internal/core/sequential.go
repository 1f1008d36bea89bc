package core

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sprint/internal/maxt"
	"sprint/internal/seqstop"
)

// This file is the sequential (early-stopping) engine: the windowed run
// loop of processRange with the seqstop rules folded in at every window
// boundary.  The design invariant that keeps it honest:
//
//   - A row's RAW count is independent of every other row, and its
//     step-down ADJUSTED count depends only on rows at or below its
//     position in the significance order (the successive maximum at
//     position j is taken over positions >= j).
//   - Therefore rows may stop CONTRIBUTING (freeze) individually — their
//     counts simply stop accumulating, pinning the estimate count/b_eff —
//     but may leave the COMPUTATION only as a frozen prefix of the order.
//     Starting each window at the first unfrozen position
//     (maxt.ProcessFrom) leaves every still-active row's statistics,
//     maxima and counts bit-for-bit what the full computation would
//     produce: sequential mode never approximates an active row, it only
//     truncates each row's permutation prefix.
//
// Every stopping decision is a pure function of the deterministic counts
// at a window boundary, so a cancelled-and-resumed sequential run (same
// window length) reproduces an uninterrupted one exactly — the same
// checkpoint/resume guarantee the exact engine has.

// DefaultSeqWindow is the stopping-rule evaluation window, in
// permutations, used when RunControl.Every asks for "one window" (< 1).
// Exact mode treats that as the whole remaining run; sequential mode
// must still evaluate the rule periodically or it could never stop
// early, so it falls back to this.
const DefaultSeqWindow = 4096

// runSequential executes the sequential engine over a resolved plan.
func runSequential(p *Prepared, cfg config, plan Plan, ctl RunControl) (*Result, error) {
	var prof Profile
	start := time.Now()
	prep, totalB := p.prep, plan.TotalB

	nprocs := ctl.NProcs
	if nprocs < 1 {
		nprocs = runtime.GOMAXPROCS(0)
	}
	batch := cfg.effectiveBatch()
	every := ctl.Every
	if every < 1 {
		every = DefaultSeqWindow
	}
	eb := int64(batch)
	every = (every + eb - 1) / eb * eb

	sc, err := seqstop.New(cfg.seqAlpha, cfg.seqTol, prep.Valid)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tracker := seqstop.NewTracker(sc, prep.Order, prep.Valid)

	counts := maxt.NewCounts(prep.Rows())
	first := int64(0)
	if ctl.Resume != nil {
		r := ctl.Resume
		if err := plan.checkResume(r, prep.Rows()); err != nil {
			return nil, err
		}
		if r.Next != r.Done {
			return nil, ckptMismatch("progress", fmt.Sprintf("counts for %d of %d permutations (a shard partial)", r.Done, r.Next), "a pure prefix (Next == Done)")
		}
		if r.BEff != nil && len(r.BEff) != prep.Rows() {
			return nil, ckptMismatch("BEff rows", len(r.BEff), prep.Rows())
		}
		copy(counts.Raw, r.Raw)
		copy(counts.Adj, r.Adj)
		counts.B = r.Done
		first = r.Next
		if err := tracker.Restore(r.BEff); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
		}
	}

	gen, err := p.generatorFor(cfg, plan, first, totalB)
	if err != nil {
		return nil, err
	}
	prof.CreateData = time.Since(start)

	kernelStart := time.Now()

	rs := ctl.Scratch
	if rs == nil {
		rs = &RunScratch{}
	}
	rs.ensure(prep, nprocs)

	bEff := tracker.BEff()
	for lo := first; lo < totalB && !tracker.AllFrozen(); lo += every {
		if ctl.Ctx != nil {
			if err := ctl.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: run stopped at permutation %d of %d: %w", lo, totalB, err)
			}
		}
		hi := lo + every
		if hi > totalB {
			hi = totalB
		}
		span := hi - lo
		var windowStart time.Time
		if ctl.OnWindow != nil {
			windowStart = time.Now()
		}
		// The window computes the step-down positions from the first
		// unfrozen one down: a resumed run starts where the prefix its
		// checkpoint froze ends.  Where a window starts never changes a
		// count (frozen rows are skipped at the merge either way).
		active := tracker.FrozenPrefix()
		if nprocs == 1 {
			maxt.ProcessFrom(prep, gen, lo, hi, rs.partials[0], rs.scratches[0], batch, active)
		} else {
			fanOut(prep, gen, lo, hi, rs.partials, rs.scratches, nprocs, batch, active)
		}
		// Merge, skipping frozen rows: their counts are pinned at their
		// freeze boundary even while the kernel still computes them (a
		// frozen row below an active one).
		for r := 0; r < nprocs; r++ {
			pc := rs.partials[r]
			if pc.B == 0 {
				continue
			}
			for i := range pc.Raw {
				if bEff[i] == 0 {
					counts.Raw[i] += pc.Raw[i]
					counts.Adj[i] += pc.Adj[i]
				}
			}
			counts.B += pc.B
			clear(pc.Raw)
			clear(pc.Adj)
			pc.B = 0
		}
		if ctl.OnWindow != nil {
			ctl.OnWindow(span, time.Since(windowStart))
		}

		tracker.Observe(counts.Raw, counts.Adj, counts.B)

		// The window that completes the run is not checkpointed (see
		// RunControl.Save): here that is the last of the plan or the one
		// that froze the last row.
		if ctl.Save != nil && hi < totalB && !tracker.AllFrozen() {
			snap := plan.snapshot(counts, hi, totalB)
			snap.BEff = slices.Clone(bEff)
			if err := ctl.Save(snap); err != nil {
				return nil, fmt.Errorf("core: checkpoint save at permutation %d: %w", hi, err)
			}
		}
		if ctl.OnProgress != nil {
			ctl.OnProgress(counts.B, totalB)
		}
		if ctl.OnSeq != nil {
			ctl.OnSeq(prep.Valid-tracker.FrozenRows(), tracker.PermsSaved(totalB))
		}
	}
	prof.MainKernel = time.Since(kernelStart)

	start = time.Now()
	tracker.Fill(counts.B)
	final := maxt.FinalizeEffective(prep, counts, tracker.BEff())
	prof.ComputePValues = time.Since(start)

	return &Result{
		Stat:      final.Stat,
		RawP:      final.RawP,
		AdjP:      final.AdjP,
		Order:     final.Order,
		B:         counts.B,
		Complete:  false,
		NProcs:    nprocs,
		Profile:   prof,
		KernelMax: prof.MainKernel,
		Mode:      ModeSequential,
		PlannedB:  totalB,
		BEff:      append([]int64(nil), tracker.BEff()...),
	}, nil
}

// SeqAllSettled reports whether merged exceedance counts covering
// counts.B sampled permutations satisfy the sequential stopping rule for
// EVERY valid row — the whole-job termination test a cluster coordinator
// applies to its merge ledger before broadcasting a stop.  Per-row
// freezing does not apply across shards (a shard never holds the global
// prefix), so distribution uses this all-rows rule only.
func SeqAllSettled(p *Prepared, opt Options, counts *maxt.Counts) (bool, error) {
	return SeqAllSettledFrozen(p, opt, counts, nil)
}

// SeqAllSettledFrozen is SeqAllSettled for a merge that resumed from a
// checkpoint with already-frozen rows: frozen[i] != 0 marks row i's
// counts as pinned at that effective permutation count, and the row is
// treated as settled by construction — it satisfied the per-row rule
// before the handoff, and its merged counts no longer track counts.B.
// A nil frozen slice is the plain all-rows rule.
func SeqAllSettledFrozen(p *Prepared, opt Options, counts *maxt.Counts, frozen []int64) (bool, error) {
	cfg, _, err := p.planFor(opt)
	if err != nil {
		return false, err
	}
	if cfg.mode != modeSequential {
		return false, fmt.Errorf("core: SeqAllSettled requires mode \"sequential\"")
	}
	prep := p.prep
	if len(counts.Raw) != prep.Rows() || len(counts.Adj) != prep.Rows() {
		return false, fmt.Errorf("core: count vectors have %d/%d rows, prep has %d", len(counts.Raw), len(counts.Adj), prep.Rows())
	}
	if frozen != nil && len(frozen) != prep.Rows() {
		return false, fmt.Errorf("core: frozen vector has %d rows, prep has %d", len(frozen), prep.Rows())
	}
	sc, err := seqstop.New(cfg.seqAlpha, cfg.seqTol, prep.Valid)
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	for j := 0; j < prep.Valid; j++ {
		r := prep.Order[j]
		if frozen != nil && frozen[r] != 0 {
			continue
		}
		if !sc.Settled(counts.Raw[r], counts.B) || !sc.Settled(counts.Adj[r], counts.B) {
			return false, nil
		}
	}
	return true, nil
}

// FinalizeCountsSequential is FinalizeCounts for a sequentially stopped
// merge: counts cover counts.B <= TotalB sampled permutations (every row
// uniformly — a fresh distributed run has no per-row freezing), and the
// Result reports the planned total and the shared effective count.
func FinalizeCountsSequential(p *Prepared, opt Options, counts *maxt.Counts) (*Result, error) {
	return FinalizeCountsSequentialFrozen(p, opt, counts, nil)
}

// FinalizeCountsSequentialFrozen finalizes a sequential merge that
// resumed from a checkpoint with frozen rows: frozen[i] != 0 pins row
// i's effective permutation count at the value local per-row stopping
// froze it at, while unfrozen valid rows take the uniform merged count.
// The caller must have masked frozen rows out of every merge so that
// counts.Raw/Adj for those rows still hold exactly the checkpoint's
// values over [0, frozen[i]).  A nil frozen slice is the uniform rule.
func FinalizeCountsSequentialFrozen(p *Prepared, opt Options, counts *maxt.Counts, frozen []int64) (*Result, error) {
	cfg, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	if cfg.mode != modeSequential {
		return nil, fmt.Errorf("core: FinalizeCountsSequential requires mode \"sequential\"")
	}
	if counts.B < 1 || counts.B > plan.TotalB {
		return nil, fmt.Errorf("core: merged permutation count %d outside (0, %d]", counts.B, plan.TotalB)
	}
	if len(counts.Raw) != plan.Rows || len(counts.Adj) != plan.Rows {
		return nil, fmt.Errorf("core: merged count vectors have %d rows, want %d", len(counts.Raw), plan.Rows)
	}
	if frozen != nil && len(frozen) != plan.Rows {
		return nil, fmt.Errorf("core: frozen vector has %d rows, want %d", len(frozen), plan.Rows)
	}
	start := time.Now()
	prep := p.prep
	bEff := make([]int64, prep.Rows())
	for j := 0; j < prep.Valid; j++ {
		r := prep.Order[j]
		if frozen != nil && frozen[r] != 0 {
			bEff[r] = frozen[r]
			continue
		}
		bEff[r] = counts.B
	}
	final := maxt.FinalizeEffective(prep, counts, bEff)
	return &Result{
		Stat:     final.Stat,
		RawP:     final.RawP,
		AdjP:     final.AdjP,
		Order:    final.Order,
		B:        counts.B,
		Complete: false,
		Profile:  Profile{ComputePValues: time.Since(start)},
		Mode:     ModeSequential,
		PlannedB: plan.TotalB,
		BEff:     bEff,
	}, nil
}
