package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"sprint/internal/durable"
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

// Checkpoint is a resumable snapshot of a permutation run, and the one
// record of a window's counts: a shard's result is a Checkpoint too.
type Checkpoint struct {
	// Fingerprint ties the checkpoint to (options, labels, data shape,
	// data sample); resuming with a different analysis fails loudly.
	Fingerprint uint64
	// TotalB is the planned permutation count and Complete records the
	// generator choice.  TotalB and the indices and counts below live in
	// the plan's own index space: a folded plan's index stands for two
	// labellings (Plan.Labellings).
	TotalB   int64
	Complete bool
	// Next is the first unprocessed permutation index and Hi the end of
	// the window [Next-Done, Hi) the counts accumulate over: TotalB for a
	// whole run, the shard's end for a shard.
	Next, Hi int64
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

// A counts record is one durable frame around the fixed little-endian
// payload
//
//	u8 version ∥ u8 flags ∥ u64 fingerprint ∥ i64 total_b, next, done, hi ∥
//	u32 rows ∥ i64 raw[rows] ∥ i64 adj[rows] ∥ [i64 b_eff[rows]]
//
// where flags bit 0 is Complete and bit 1 marks the b_eff vector.  The
// frame's CRC is the record's only integrity check: a worker's record
// keeps the CRC it was sent with through retention, the merge and the
// journal.
const (
	recordVersion = 1
	recordHeader  = 46
	flagComplete  = 1
	flagBEff      = 2
)

// RecordSize is the byte size of a counts record over rows rows without
// a b_eff vector — a shard's — frame included.
func RecordSize(rows int) int {
	return durable.FrameHeader + recordHeader + 16*rows
}

// AppendRecord appends c to buf as one counts record.
func (c *Checkpoint) AppendRecord(buf []byte) []byte {
	var flags byte
	if c.Complete {
		flags |= flagComplete
	}
	if c.BEff != nil {
		flags |= flagBEff
	}
	p := make([]byte, 0, recordHeader+8*(len(c.Raw)+len(c.Adj)+len(c.BEff)))
	p = append(p, recordVersion, flags)
	p = binary.LittleEndian.AppendUint64(p, c.Fingerprint)
	for _, v := range [...]int64{c.TotalB, c.Next, c.Done, c.Hi} {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(c.Raw)))
	for _, vs := range [...][]int64{c.Raw, c.Adj, c.BEff} {
		for _, v := range vs {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
	}
	return durable.AppendFrame(buf, p)
}

// DecodeRecord decodes frame, which must be exactly one counts record.
// A frame that fails its CRC, an unknown version or flag, a length other
// than the header implies, a range outside
// 0 ≤ next−done ≤ next ≤ hi ≤ total_b and a b_eff entry outside
// [0, done] fail with an error wrapping durable.ErrCorrupt.  Whether
// the record belongs to an analysis is the caller's check.
func DecodeRecord(frame []byte) (*Checkpoint, error) {
	p, err := durable.OnlyFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("core: counts record: %w", err)
	}
	corrupt := func(format string, args ...any) (*Checkpoint, error) {
		return nil, fmt.Errorf("core: counts record: %w: %s", durable.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(p) < recordHeader {
		return corrupt("%d bytes, short of the header", len(p))
	}
	if p[0] != recordVersion {
		return corrupt("version %d, this build reads version %d", p[0], recordVersion)
	}
	if p[1]&^(flagComplete|flagBEff) != 0 {
		return corrupt("unknown flags %#x", p[1])
	}
	le := binary.LittleEndian
	c := &Checkpoint{
		Fingerprint: le.Uint64(p[2:]),
		TotalB:      int64(le.Uint64(p[10:])),
		Next:        int64(le.Uint64(p[18:])),
		Done:        int64(le.Uint64(p[26:])),
		Hi:          int64(le.Uint64(p[34:])),
		Complete:    p[1]&flagComplete != 0,
	}
	rows := uint64(le.Uint32(p[42:]))
	vecs := uint64(2)
	if p[1]&flagBEff != 0 {
		vecs = 3
	}
	if uint64(len(p)) != recordHeader+8*vecs*rows {
		return corrupt("%d bytes, the header implies %d", len(p), recordHeader+8*vecs*rows)
	}
	if c.Done < 0 || c.Done > c.Next || c.Next > c.Hi || c.Hi > c.TotalB {
		return corrupt("range next %d, done %d, hi %d, total_b %d breaks 0 ≤ next−done ≤ next ≤ hi ≤ total_b", c.Next, c.Done, c.Hi, c.TotalB)
	}
	vs := make([]int64, vecs*rows)
	for i := range vs {
		vs[i] = int64(le.Uint64(p[recordHeader+8*i:]))
	}
	c.Raw, c.Adj = vs[:rows:rows], vs[rows:2*rows:2*rows]
	if vecs == 3 {
		c.BEff = vs[2*rows:]
		for i, b := range c.BEff {
			if b < 0 || b > c.Done {
				return corrupt("b_eff[%d] = %d outside [0, done %d]", i, b, c.Done)
			}
		}
	}
	return c, nil
}

// Encode writes the checkpoint as one counts record.
func (c *Checkpoint) Encode(w io.Writer) error {
	_, err := w.Write(c.AppendRecord(nil))
	return err
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return DecodeRecord(data)
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
// The batch and the kernel ISA are deliberately NOT part of the
// fingerprint: both are bitwise neutral AND order-neutral, so
// checkpoints are interchangeable across them.  The enumeration order
// (doorOrder) IS part of it: a checkpoint's counts are a prefix over one
// specific order, so resuming under a different order would process the
// wrong remainder.  The order is now a function of the design, so every
// checkpoint this engine writes carries the design's own order bit; one
// written under an order earlier engines let a caller force fails
// Plan.Resume and its run recomputes.
const engineVersion = 5

// fingerprint summarises the analysis identity: the engine version,
// validated options, the resolved enumeration order and orbit size, the
// class labels and a sample of the data.  Any change that could alter
// the permutation stream — its membership or its order — or the
// statistics changes the fingerprint.  The orbit size mixes in only when
// a plan is folded, so every unfolded plan keeps the fingerprint earlier
// engines gave it, and a checkpoint of the unfolded enumeration of a now
// folded plan fails Plan.Resume.  Sequential mode also mixes in (alpha,
// tolerance) and its stop grid: a sequential checkpoint's frozen rows
// embody decisions taken under them, so resuming under others would
// freeze wrong rows.
func fingerprint(cfg config, x matrix.Matrix, classlabel []int, doorOrder bool, orbit int64) uint64 {
	h := rng.Mix64(uint64(engineVersion)<<44 ^ uint64(boolToInt64(doorOrder))<<40 ^ uint64(cfg.test)<<32 ^ uint64(cfg.side)<<24 ^ uint64(boolToInt64(cfg.fixedSeed))<<16 ^ uint64(boolToInt64(cfg.nonpara)))
	h = rng.Mix64(h ^ uint64(cfg.b) ^ cfg.seed<<1)
	if orbit > 1 {
		h = rng.Mix64(h ^ 0xf01d ^ uint64(orbit)<<16)
	}
	if cfg.mode == modeSequential {
		h = rng.Mix64(h ^ 0x5e9)
		h = rng.Mix64(h ^ math.Float64bits(cfg.seqAlpha))
		h = rng.Mix64(h ^ math.Float64bits(cfg.seqTol))
		h = rng.Mix64(h ^ DefaultSeqWindow)
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
