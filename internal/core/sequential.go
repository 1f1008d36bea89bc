package core

import "sprint/internal/maxt"

// This file holds what is particular to the sequential (early-stopping)
// engine; its window loop is processRange's, with a seqstop.Tracker
// applying the rules at every window boundary.  The design invariant
// that keeps it honest:
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
// at a boundary of the plan's stop grid, so a sequential run reproduces
// an uninterrupted one exactly at any window length, rank count and
// cancel/resume history — the same guarantee the exact engine has.

// DefaultSeqWindow is the sequential stop grid, in permutations: the
// rule is evaluated, and a checkpoint may be saved, at its multiples
// only.  It is part of the plan (and its fingerprint); RunControl.Every
// does not move it.
const DefaultSeqWindow = 4096

// SeqAllSettled reports whether merged exceedance counts covering
// counts.B sampled permutations satisfy the sequential stopping rule of
// plan for every valid row not pinned by frozen (see FinalizeCounts) —
// the whole-job termination test a cluster coordinator applies to its
// merge ledger before broadcasting a stop.  Per-row freezing does not
// apply across shards (a shard never holds the global prefix), so
// distribution uses this all-rows rule only.  An exact plan never
// settles.
func SeqAllSettled(p *Prepared, plan Plan, counts *maxt.Counts, frozen []int64) bool {
	if plan.seq == nil {
		return false
	}
	for _, r := range p.prep.Order[:p.prep.Valid] {
		if frozen != nil && frozen[r] != 0 {
			continue
		}
		if !plan.seq.Settled(counts.Raw[r], counts.B) || !plan.seq.Settled(counts.Adj[r], counts.B) {
			return false
		}
	}
	return true
}
