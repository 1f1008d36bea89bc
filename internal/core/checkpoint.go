package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"sprint/internal/matrix"
	"sprint/internal/rng"
)

// This file implements the paper's future-work item 1: "Better support for
// fault tolerance and checkpointing ... this may be of increasing
// importance as life scientists wish to perform even more tests on ever
// larger datasets."
//
// The permutation loop is embarrassingly restartable: the entire mutable
// state is the pair of exceedance-count vectors plus the index of the next
// permutation.  A Checkpoint captures exactly that, together with a
// fingerprint of the inputs so that a checkpoint cannot silently resume a
// different analysis.

// Checkpoint is a resumable snapshot of a permutation run.
type Checkpoint struct {
	// Fingerprint ties the checkpoint to (options, labels, data shape,
	// data sample); resuming with a different analysis fails loudly.
	Fingerprint uint64
	// TotalB is the planned permutation count and Complete records the
	// generator choice.
	TotalB   int64
	Complete bool
	// Next is the first unprocessed permutation index.
	Next int64
	// Raw, Adj and Done are the accumulated exceedance counts and the
	// number of permutations they cover.
	Raw, Adj []int64
	Done     int64
	// BEff is the sequential-mode freeze state: per matrix row, the
	// permutation count at which the row's counts were frozen (0 = still
	// accumulating).  Nil on exact-mode checkpoints.  A frozen row's Raw
	// and Adj entries cover [0, BEff[i]) rather than [0, Done).
	BEff []int64
}

// Encode serialises the checkpoint.
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &c, nil
}

// engineVersion tags the statistics engine whose counts a checkpoint
// accumulates.  Version 2 was the flat-matrix batched-kernel engine;
// version 3 the permutation-batched engine whose two-sample and paired-t
// tails evaluate on scaled central moments; version 4 the
// delta-evaluation engine, whose complete two-sample enumerations run in
// revolving-door order by default.  Version 5 is the sequential-capable
// engine: exact-mode statistic bit patterns and enumeration orders are
// IDENTICAL to version 4's, but checkpoints gained the BEff freeze-state
// vector and the fingerprint gained the run mode, so a v4 checkpoint —
// which cannot carry freeze state — must fail loudly with
// ErrCheckpointMismatch rather than resume under rules it never ran.
// BatchSize and the kernel ISA are deliberately NOT part of the
// fingerprint: both are bitwise neutral AND order-neutral, so
// checkpoints are interchangeable across them.  The resolved enumeration
// order (doorOrder) IS part of it: a checkpoint's counts are a prefix
// over one specific order, so resuming under a different order would
// process the wrong remainder.
const engineVersion = 5

// fingerprint summarises the analysis identity: the engine version,
// validated options, the resolved enumeration order, the class labels
// and a sample of the data.  Any change that could alter the permutation
// stream — its membership or its order — or the statistics changes the
// fingerprint.  Sequential mode additionally mixes in its stopping
// parameters: a sequential checkpoint's frozen rows embody stopping
// decisions taken under one specific (alpha, tolerance), so resuming
// under different parameters would freeze the wrong rows.
func fingerprint(cfg config, x matrix.Matrix, classlabel []int, doorOrder bool) uint64 {
	h := rng.Mix64(uint64(engineVersion)<<44 ^ uint64(boolToInt64(doorOrder))<<40 ^ uint64(cfg.test)<<32 ^ uint64(cfg.side)<<24 ^ uint64(boolToInt64(cfg.fixedSeed))<<16 ^ uint64(boolToInt64(cfg.nonpara)))
	h = rng.Mix64(h ^ uint64(cfg.b) ^ cfg.seed<<1)
	if cfg.mode == modeSequential {
		h = rng.Mix64(h ^ 0x5e9)
		h = rng.Mix64(h ^ math.Float64bits(cfg.seqAlpha))
		h = rng.Mix64(h ^ math.Float64bits(cfg.seqTol))
	}
	h = rng.Mix64(h ^ uint64(x.Rows)<<32 ^ uint64(x.Cols))
	for _, l := range classlabel {
		h = rng.Mix64(h ^ uint64(l+1))
	}
	// Sample up to 64 cells spread across the matrix (the same cells the
	// [][]float64-era code sampled; only the engine-version tag above
	// separates the two eras' fingerprints).
	rows, cols := x.Rows, x.Cols
	for i := 0; i < 64; i++ {
		r := (i * 2654435761) % rows
		c := (i * 40503) % cols
		v := x.At(r, c)
		if math.IsNaN(v) {
			h = rng.Mix64(h ^ 0x7ff8dead)
		} else {
			h = rng.Mix64(h ^ math.Float64bits(v))
		}
	}
	return h
}

// ErrCheckpointMismatch reports a checkpoint that does not belong to the
// requested analysis.
var ErrCheckpointMismatch = fmt.Errorf("core: checkpoint does not match this analysis (options, labels or data changed)")

// ckptMismatch wraps ErrCheckpointMismatch naming the field that drifted,
// so a cluster or resume mismatch reports WHAT disagreed instead of only
// that something did.  errors.Is(err, ErrCheckpointMismatch) still holds.
func ckptMismatch(field string, got, want any) error {
	return fmt.Errorf("%w: %s drifted (checkpoint has %v, analysis wants %v)", ErrCheckpointMismatch, field, got, want)
}

// MaxTCheckpointed runs the serial permutation loop with periodic
// checkpoints.  Every `every` permutations — but not at the end, where the
// result itself follows — it calls save with a snapshot; if save returns
// an error the run stops and returns that error, leaving the caller free
// to retry later from the last saved state.  Pass resume = nil for a fresh
// run, or a previously saved checkpoint to continue one.  The final result
// is bit-identical to an uninterrupted MaxT with the same options.
//
// It is the serial special case of Run, kept as the stable historical
// entry point.
func MaxTCheckpointed(x [][]float64, classlabel []int, opt Options, resume *Checkpoint, every int64, save func(*Checkpoint) error) (*Result, error) {
	if every <= 0 {
		return nil, fmt.Errorf("core: checkpoint interval %d must be positive", every)
	}
	return Run(x, classlabel, opt, RunControl{Resume: resume, Every: every, Save: save})
}
