package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/maxt"
	"sprint/internal/perm"
	"sprint/internal/seqstop"
)

// This file is the distribution surface of the engine: the paper's Step
// 4a/4b split — partition the permutation range [0, B) across ranks,
// compute local exceedance counts, merge — lifted from goroutine ranks
// inside one process (RunPrepared) to shards computed on separate nodes.
// The contract that makes that lift bitwise-safe is narrow and worth
// stating once:
//
//   - Every generator enumerates ONE deterministic permutation sequence
//     fixed by (options, design); any [lo, hi) slice of it can be
//     produced on any node (Random indexes in O(1), Complete and
//     RevolvingDoor unrank, Stored materialises exactly the chunk).  A
//     folded plan's sequence holds one labelling per complement pair;
//     its indices, shards and checkpoints live in that sequence, and
//     only finalize and the progress hooks count labellings.
//   - Exceedance counts are int64 sums over disjoint index ranges, so
//     merging shard counts is commutative and associative: ANY partition
//     merged in ANY order yields the same vectors, provided each index
//     is counted exactly once.
//   - Finalize is a pure function of (Prep, merged counts).
//
// Plan captures the shared identity every node must agree on and
// Plan.Resume its one resume rule; processRange is the one window loop;
// RunShard computes one range; FinalizeCounts turns merged counts into
// the Result.  RunPrepared is the single-node composition of the same
// pieces, in both run modes.

// Plan is the resolved permutation plan of an analysis: everything a
// set of nodes must agree on before splitting the range.  Two nodes
// with equal fingerprints enumerate the same permutation sequence over
// the same prepared data, so their shard counts may be merged.
type Plan struct {
	// TotalB is the length of the plan's permutation sequence, observed
	// labelling included; shards partition [0, TotalB).  It counts
	// labellings divided by Orbit.
	TotalB int64
	// Complete records the generator choice and Door the resolved
	// enumeration order of complete two-sample runs.
	Complete bool
	Door     bool
	// Orbit is how many labellings each index of the sequence stands for:
	// 2 when a complete enumeration is folded by its exact symmetry (one
	// labelling per complement pair, see foldable), 1 otherwise.
	Orbit int64
	// Rows is the per-shard count vector length.
	Rows int
	// Fingerprint ties shard results to the analysis identity, exactly
	// as it ties checkpoints: engine version, validated options,
	// enumeration order, labels and a data sample.
	Fingerprint uint64
	// seq is the stopping rule of a sequential plan; nil for exact.
	seq *seqstop.Config
}

// Sequential reports whether the plan runs the early-stopping engine.
func (pl Plan) Sequential() bool { return pl.seq != nil }

// PlanRun resolves opt against the preparation without running anything.
func PlanRun(p *Prepared, opt Options) (Plan, error) {
	_, plan, err := p.planFor(opt)
	return plan, err
}

// planFor validates opt, checks prep compatibility and resolves the
// permutation plan.
func (p *Prepared) planFor(opt Options) (config, Plan, error) {
	cfg, err := parseOptions(opt)
	if err != nil {
		return cfg, Plan{}, err
	}
	if err := p.compatible(cfg); err != nil {
		return cfg, Plan{}, err
	}
	useComplete, totalB, err := planPermutations(cfg, p.design)
	if err != nil {
		return cfg, Plan{}, err
	}
	if cfg.mode == modeSequential && useComplete {
		return cfg, Plan{}, fmt.Errorf("core: mode \"sequential\" requires sampled permutations, but the plan resolved to the complete enumeration (%d labellings, which is exact by definition); run exact mode instead", totalB)
	}
	door := useComplete && perm.RevolvingDoorOK(p.design)
	orbit := int64(1)
	if useComplete && foldable(cfg, p.design) {
		orbit = 2
	}
	plan := Plan{
		TotalB:      totalB / orbit,
		Complete:    useComplete,
		Door:        door,
		Orbit:       orbit,
		Rows:        p.prep.Rows(),
		Fingerprint: fingerprint(cfg, p.clean, p.labels, door, orbit),
	}
	if cfg.mode == modeSequential {
		sc, err := seqstop.New(cfg.seqAlpha, cfg.seqTol, p.prep.Valid)
		if err != nil {
			return cfg, Plan{}, fmt.Errorf("core: %w", err)
		}
		plan.seq = &sc
	}
	return cfg, plan, nil
}

// Labellings converts a count of the plan's indices — a progress, a
// resume point, its TotalB — into the labellings they stand for.
func (pl Plan) Labellings(n int64) int64 { return n * pl.Orbit }

// snapshot is the plan's record of counts over [next-counts.B, next) of
// the window ending at hi, with its own copy of the count vectors.
func (pl Plan) snapshot(counts *maxt.Counts, next, hi int64) *Checkpoint {
	return &Checkpoint{
		Fingerprint: pl.Fingerprint, TotalB: pl.TotalB, Complete: pl.Complete,
		Next: next, Hi: hi, Done: counts.B,
		Raw: slices.Clone(counts.Raw), Adj: slices.Clone(counts.Adj),
	}
}

// Resume is the one resume rule of every window a plan's counts
// accumulate over — a whole run is the window starting at 0, a shard the
// one starting at its lo.  It validates r as progress of the window
// [lo, hi) and returns the counts r seeds, covering [lo, lo+counts.B),
// and the rows r froze (nil when none are).  A nil r seeds zero counts.
// r must name the plan (fingerprint, TotalB, Complete, rows), be a
// prefix of the window (Next−Done == lo, Next ≤ hi), and carry freeze
// state exactly when the plan is sequential, one entry per row.  A
// rejection wraps ErrCheckpointMismatch naming the field that drifted.
func (pl Plan) Resume(r *Checkpoint, lo, hi int64) (*maxt.Counts, []int64, error) {
	counts := maxt.NewCounts(pl.Rows)
	if r == nil {
		return counts, nil, nil
	}
	switch {
	case r.Fingerprint != pl.Fingerprint:
		return nil, nil, ckptMismatch("fingerprint", fmt.Sprintf("%016x", r.Fingerprint), fmt.Sprintf("%016x", pl.Fingerprint))
	case r.TotalB != pl.TotalB:
		return nil, nil, ckptMismatch("TotalB", r.TotalB, pl.TotalB)
	case r.Complete != pl.Complete:
		return nil, nil, ckptMismatch("Complete", r.Complete, pl.Complete)
	case len(r.Raw) != pl.Rows || len(r.Adj) != pl.Rows:
		return nil, nil, ckptMismatch("rows", fmt.Sprintf("%d raw / %d adj counts", len(r.Raw), len(r.Adj)), pl.Rows)
	case r.Next-r.Done != lo || r.Next < lo || r.Next > hi:
		return nil, nil, ckptMismatch("range", fmt.Sprintf("counts over [%d, %d)", r.Next-r.Done, r.Next), fmt.Sprintf("a prefix of [%d, %d)", lo, hi))
	case pl.seq == nil && r.BEff != nil:
		return nil, nil, ckptMismatch("mode", "sequential freeze state", "an exact-mode checkpoint")
	case pl.seq != nil && len(r.BEff) != pl.Rows:
		return nil, nil, ckptMismatch("BEff rows", len(r.BEff), pl.Rows)
	}
	copy(counts.Raw, r.Raw)
	copy(counts.Adj, r.Adj)
	counts.B = r.Done
	var frozen []int64
	if slices.ContainsFunc(r.BEff, func(b int64) bool { return b != 0 }) {
		frozen = slices.Clone(r.BEff)
	}
	return counts, frozen, nil
}

// generatorFor builds the permutation generator serving indices
// [lo, hi) of the plan's sequence.  Complete and fixed-seed generators
// index the whole sequence in O(1) per draw; the stored generator
// materialises exactly the requested chunk (paying one pass of discards
// over [1, lo), the paper's "cycle the stream forward" cost).
func (p *Prepared) generatorFor(cfg config, plan Plan, lo, hi int64) (perm.Generator, error) {
	switch {
	case plan.Orbit > 1:
		return perm.NewFolded(p.design)
	case plan.Complete:
		return completeGen(p.design)
	case cfg.fixedSeed:
		return perm.NewRandom(p.design, cfg.seed, plan.TotalB), nil
	default:
		return perm.NewStored(p.design, cfg.seed, plan.TotalB, lo, hi), nil
	}
}

// processRange is the engine's one window loop: it drives the windowed
// multi-rank kernel over permutation indices [first, limit), merging
// exceedance counts into counts.  It returns the first unprocessed
// index: limit on success, the boundary of the last completed window
// when ctl.Ctx cancels — counts then hold a valid partial covering
// everything below that boundary, which is what lets a draining worker
// hand its progress back instead of discarding it.  The window ending
// at limit is not checkpointed: the caller finalizes or ships counts
// next, so that checkpoint would be written, fsynced and dropped within
// microseconds.
//
// tr, non-nil on sequential runs, applies the stopping rule at every
// window boundary: each window computes from the frozen prefix down,
// merges only rows still accumulating, checkpoints the freeze state, and
// the loop stops as soon as every row is frozen.  Its windows end on the
// plan's stop grid (DefaultSeqWindow), whatever ctl.Every says.
func processRange(p *Prepared, plan Plan, gen perm.Generator, counts *maxt.Counts, first, limit int64, tr *seqstop.Tracker, ctl RunControl) (int64, error) {
	prep := p.prep
	nprocs := ctl.NProcs
	if nprocs < 1 {
		nprocs = runtime.GOMAXPROCS(0)
	}
	const batch = DefaultBatchSize
	every, grid := ctl.Every, first // exact windows count from first
	if tr != nil {
		every, grid = DefaultSeqWindow, 0
	}
	if every < 1 {
		every = max(limit-first, 1)
	} else {
		// Align the window to whole kernel batches, so no window ends on a
		// ragged tail batch.  A checkpoint at ANY boundary, aligned or not,
		// stays a valid resume point: counts are a pure prefix sum.
		eb := int64(batch)
		every = (every + eb - 1) / eb * eb
	}

	rs := ctl.Scratch
	if rs == nil {
		rs = &RunScratch{}
	}
	rs.ensure(prep, nprocs)
	scratches, partials := rs.scratches, rs.partials

	stopped := func(at int64, err error) error {
		return fmt.Errorf("core: run stopped at permutation %d of %d: %w", plan.Labellings(at), plan.Labellings(plan.TotalB), err)
	}
	saveFailed := func(at int64, err error) error {
		return fmt.Errorf("core: checkpoint save at permutation %d: %w", plan.Labellings(at), err)
	}
	// A window's checkpoint is written beside the next window (ckptWriter)
	// and joined before that window's counts merge, so the run stops where
	// the synchronous loop — compute, Save, compute — would have: the
	// window after a failed write, or after a write that returned into a
	// cancelled context, is dropped unmerged.  No write is in flight when
	// the loop returns: none starts for the window that completes the run.
	var w ckptWriter
	lo := first
	for lo < limit && (tr == nil || !tr.AllFrozen()) {
		if ctl.Ctx != nil {
			if err := ctl.Ctx.Err(); err != nil {
				if serr, _ := w.join(); serr != nil {
					return lo, saveFailed(lo, serr)
				}
				return lo, stopped(lo, err)
			}
		}
		hi := min(lo+every-(lo-grid)%every, limit)
		var windowStart time.Time
		if ctl.OnWindow != nil {
			windowStart = time.Now()
		}
		// A sequential window computes the step-down positions from the
		// first unfrozen one down, and the merge skips frozen rows: their
		// counts stay pinned at their freeze boundary even while the kernel
		// still computes them (a frozen row below an active one).  A window
		// beside a write counts into the partials.
		from, frozen := 0, []int64(nil)
		if tr != nil {
			from, frozen = tr.FrozenPrefix(), tr.BEff()
		}
		direct := nprocs == 1 && tr == nil && !w.busy()
		switch {
		case direct:
			maxt.ProcessFrom(prep, gen, lo, hi, counts, scratches[0], batch, 0)
		case nprocs == 1:
			maxt.ProcessFrom(prep, gen, lo, hi, partials[0], scratches[0], batch, from)
		default:
			fanOut(prep, gen, lo, hi, partials, scratches, nprocs, batch, from)
		}
		if ctl.OnWindow != nil {
			ctl.OnWindow(hi-lo, time.Since(windowStart))
		}
		serr, cerr := w.join()
		if !direct {
			for _, pc := range partials[:nprocs] {
				if pc.B > 0 {
					if serr == nil && cerr == nil {
						counts.MergeMasked(pc, frozen)
					}
					pc.Reset(len(pc.Raw))
				}
			}
		}
		if serr != nil {
			return lo, saveFailed(lo, serr)
		}
		if cerr != nil {
			return lo, stopped(lo, cerr)
		}
		if tr != nil {
			tr.Observe(counts.Raw, counts.Adj, counts.B)
		}
		// The window that completes the run is not checkpointed (see
		// RunControl.Save): the last of the range, or the one that froze
		// the last row.
		report := progress(plan, prep, counts, tr, ctl)
		if ctl.Save != nil && hi < limit && (tr == nil || !tr.AllFrozen()) {
			snap := plan.snapshot(counts, hi, limit)
			if tr != nil {
				snap.BEff = slices.Clone(tr.BEff())
			}
			w.start(ctl.Ctx, ctl.Save, snap, report)
		} else {
			report()
		}
		lo = hi
	}
	return lo, nil
}

// progress returns the call of the run's progress hooks for the window
// just merged, their arguments taken now.  After a checkpointed window it
// runs once the checkpoint is written, on the writer's goroutine, as the
// synchronous loop ran it: a status never reports progress that is not
// yet on disk.
func progress(plan Plan, prep *maxt.Prep, counts *maxt.Counts, tr *seqstop.Tracker, ctl RunControl) func() {
	done, total := plan.Labellings(counts.B), plan.Labellings(plan.TotalB)
	seq := tr != nil && ctl.OnSeq != nil
	var active int
	var saved int64
	if seq {
		active, saved = prep.Valid-tr.FrozenRows(), tr.PermsSaved(plan.TotalB)
	}
	return func() {
		if ctl.OnProgress != nil {
			ctl.OnProgress(done, total)
		}
		if seq {
			ctl.OnSeq(active, saved)
		}
	}
}

// ckptWriter runs a supervised run's Save calls on a goroutine of their
// own, one at a time: the checkpoint of a window is written while the
// next window computes.  The snapshot it writes is already a copy, so the
// loop may go on merging into counts meanwhile.
type ckptWriter struct {
	done chan ckptWrite // nil when no write is in flight
}

// ckptWrite is how one Save call ended.
type ckptWrite struct {
	err      error
	ctxErr   error // the run's cancellation, as Save returned
	panicked any
}

// errSaveExited is the error of a Save call that ended its goroutine
// without returning (runtime.Goexit).
var errSaveExited = errors.New("core: checkpoint save exited without returning")

func (w *ckptWriter) busy() bool { return w.done != nil }

// start writes ck with save and, once it is written, calls after.  The
// previous write must have been joined.
func (w *ckptWriter) start(ctx context.Context, save func(*Checkpoint) error, ck *Checkpoint, after func()) {
	done := make(chan ckptWrite, 1)
	w.done = done
	go func() {
		r := ckptWrite{err: errSaveExited}
		defer func() {
			r.panicked = recover()
			done <- r
		}()
		if r.err = save(ck); r.err == nil {
			after()
		}
		if ctx != nil {
			r.ctxErr = ctx.Err()
		}
	}()
}

// join waits for the write in flight, if any, and returns Save's error
// and the run's cancellation as Save returned: what the synchronous loop
// would have stopped on before its next window.  A panic in Save is
// re-raised here, on the run's goroutine.
func (w *ckptWriter) join() (saveErr, ctxErr error) {
	if w.done == nil {
		return nil, nil
	}
	r := <-w.done
	w.done = nil
	if r.panicked != nil {
		panic(r.panicked)
	}
	return r.err, r.ctxErr
}

// rankPiece is the least number of permutations a rank claims at a time.
const rankPiece = 64

// fanOut evaluates permutations [lo, hi) on up to nprocs goroutine ranks,
// rank r counting step-down positions first and below into partials[r]
// with scratches[r].  The ranks share the
// window by claiming pieces of it — whole kernel batches, at least
// rankPiece permutations — from a common cursor until none is left, so a
// rank that loses its CPU for a while (to a request handler, the
// collector, a neighbour on the host) leaves the rest of the window to the
// others instead of holding them at the barrier: the window ends within
// one piece of the moment the work runs out.  Which rank counts which
// piece is then a matter of timing, and cannot show in the result: counts
// merge by addition and every index is claimed exactly once.
func fanOut(prep *maxt.Prep, gen perm.Generator, lo, hi int64, partials []*maxt.Counts, scratches []*maxt.Scratch, nprocs, batch, first int) {
	piece := int64(max(batch, 1))
	piece *= (rankPiece + piece - 1) / piece
	var next atomic.Int64
	next.Store(lo)
	var wg sync.WaitGroup
	for r := 0; r < nprocs && lo+int64(r)*piece < hi; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				chi := next.Add(piece)
				clo := chi - piece
				if clo >= hi {
					return
				}
				maxt.ProcessFrom(prep, gen, clo, min(chi, hi), partials[r], scratches[r], batch, first)
			}
		}(r)
	}
	wg.Wait()
}

// ShardCounts is the partial result of one shard: exceedance counts
// over the contiguous global index range [Lo, Next) of the plan's
// permutation sequence.  Next < Hi marks a partial shard (the node
// drained or was cancelled mid-range); the unprocessed remainder
// [Next, Hi) must be computed elsewhere.
type ShardCounts struct {
	Plan         Plan
	Lo, Next, Hi int64
	Counts       *maxt.Counts
}

// Checkpoint returns the shard's counts as the record a node ships,
// retains and journals.
func (sc *ShardCounts) Checkpoint() *Checkpoint {
	return sc.Plan.snapshot(sc.Counts, sc.Next, sc.Hi)
}

// RunShard computes exceedance counts for the global permutation index
// range [lo, hi) of the plan opt resolves to over p.  It is the worker
// half of the distributed Step 4b: bit-for-bit the counts a single-node
// run accumulates over the same indices, for every test, kernel and
// enumeration order, because the generator slice and the kernel are the
// single-node ones.
//
// ctl.Resume may carry a shard checkpoint previously saved through
// ctl.Save during a run of the SAME range: it is accepted when the
// fingerprint, plan and range agree (Next-Done == lo places its counts
// at this shard's origin) and rejected with ErrCheckpointMismatch
// otherwise.  On context cancellation RunShard returns the error AND a
// ShardCounts whose Next marks the last completed window boundary —
// counts below it are valid and mergeable, so a draining worker ships
// them instead of wasting the work.
func RunShard(p *Prepared, opt Options, lo, hi int64, ctl RunControl) (*ShardCounts, error) {
	cfg, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	if cfg.mode == modeSequential {
		// Per-row freezing needs the global prefix counts, which one shard
		// never holds: sequential stopping is coordinated ABOVE the shard
		// level (the coordinator evaluates merged counts and cancels
		// in-flight shards), so shards themselves always run exact.
		return nil, fmt.Errorf("core: RunShard rejects mode \"sequential\": shards compute exact counts; the coordinator applies the stopping rule to the merge")
	}
	if lo < 0 || hi > plan.TotalB || lo >= hi {
		return nil, fmt.Errorf("core: shard range [%d, %d) outside plan [0, %d)", lo, hi, plan.TotalB)
	}
	counts, _, err := plan.Resume(ctl.Resume, lo, hi)
	if err != nil {
		return nil, err
	}
	start := lo + counts.B
	sc := &ShardCounts{Plan: plan, Lo: lo, Next: start, Hi: hi, Counts: counts}
	if start == hi {
		return sc, nil
	}
	gen, err := p.generatorFor(cfg, plan, start, hi)
	if err != nil {
		return nil, err
	}
	next, runErr := processRange(p, plan, gen, counts, start, hi, nil, ctl)
	sc.Next = next
	return sc, runErr
}

// FinalizeCounts converts merged exceedance counts into the final
// Result: the deterministic Step 5 a coordinator applies after merging
// its shards.  An exact plan's counts must cover the whole plan
// (counts.B == TotalB); the Result is then bitwise identical to a
// single-node run, no matter how the range was partitioned or in which
// order shards merged.  A sequential plan's counts cover counts.B ≤
// TotalB permutations: a row with frozen[i] != 0 — a row a resumed
// checkpoint froze, whose counts were merged with Counts.MergeMasked —
// is estimated over frozen[i] permutations, every other row over
// counts.B.  frozen is nil when no row is frozen, and always for exact
// plans.
func FinalizeCounts(p *Prepared, opt Options, counts *maxt.Counts, frozen []int64) (*Result, error) {
	_, plan, err := p.planFor(opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := p.finalize(plan, counts, frozen)
	if err != nil {
		return nil, err
	}
	res.Profile.ComputePValues = time.Since(start)
	return res, nil
}

// unfold returns counts over the plan's indices as counts over the
// labellings they stand for.  The labellings of one orbit add identical
// raw and step-down increments, so each index's count multiplies by the
// orbit size; the p-values are unchanged, since (2c)/(2B) rounds exactly
// as c/B does.
func (pl Plan) unfold(c *maxt.Counts) *maxt.Counts {
	if pl.Orbit == 1 {
		return c
	}
	out := &maxt.Counts{Raw: make([]int64, len(c.Raw)), Adj: make([]int64, len(c.Adj)), B: pl.Labellings(c.B)}
	for i := range c.Raw {
		out.Raw[i] = pl.Labellings(c.Raw[i])
		out.Adj[i] = pl.Labellings(c.Adj[i])
	}
	return out
}

// finalize is FinalizeCounts under a resolved plan.
func (p *Prepared) finalize(plan Plan, counts *maxt.Counts, frozen []int64) (*Result, error) {
	switch {
	case counts.B < 0 || counts.B > plan.TotalB || (plan.seq == nil && counts.B != plan.TotalB):
		return nil, fmt.Errorf("core: merged permutation count %d does not fit a plan of %d (sequential %v)", counts.B, plan.TotalB, plan.Sequential())
	case len(counts.Raw) != plan.Rows || len(counts.Adj) != plan.Rows:
		return nil, fmt.Errorf("core: merged count vectors have %d/%d rows, want %d", len(counts.Raw), len(counts.Adj), plan.Rows)
	case frozen != nil && (plan.seq == nil || len(frozen) != plan.Rows):
		return nil, fmt.Errorf("core: frozen vector of %d rows for a %d-row plan (sequential %v)", len(frozen), plan.Rows, plan.Sequential())
	}
	prep := p.prep
	if plan.seq == nil {
		final := maxt.Finalize(prep, plan.unfold(counts))
		return &Result{
			Stat:     final.Stat,
			RawP:     final.RawP,
			AdjP:     final.AdjP,
			Order:    final.Order,
			B:        final.B,
			Complete: plan.Complete,
		}, nil
	}
	bEff := make([]int64, prep.Rows())
	for _, r := range prep.Order[:prep.Valid] {
		bEff[r] = counts.B
		if frozen != nil && frozen[r] != 0 {
			bEff[r] = frozen[r]
		}
	}
	final := maxt.FinalizeEffective(prep, counts, bEff)
	return &Result{
		Stat:     final.Stat,
		RawP:     final.RawP,
		AdjP:     final.AdjP,
		Order:    final.Order,
		B:        counts.B,
		Mode:     ModeSequential,
		PlannedB: plan.TotalB,
		BEff:     bEff,
	}, nil
}
