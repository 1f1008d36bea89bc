package jobs

// This file is the durable merge ledger of a distributed run: the
// journal-backed record of the coordinator's shard plan and every
// accepted shard delivery.  It is what lets a
// coordinator that was SIGKILLed mid-job restart, replay the ledger,
// merge the already-delivered windows from the journal, and re-dispatch
// only the uncovered remainder — zero recomputation of delivered
// shards, bitwise-identical final results.
//
// Ledger records ride the job journal (same durable frame, fsync
// discipline, torn-tail truncation and compaction), as two record kinds
// keyed by job id:
//
//	plan   the shard plan: fingerprint, planned total, resume start,
//	       span boundaries, and (sequential resume) the frozen per-row
//	       effective counts.  A plan record RESETS any deliveries
//	       journaled under an earlier plan — it is written exactly when
//	       the coordinator decides the replayed state is unusable and
//	       partitions afresh.
//	shard  one accepted delivery: its counts record
//	       (core.Checkpoint.AppendRecord) exactly as the delivering node
//	       framed it, whose CRC the coordinator verifies again on replay
//	       before the window is trusted.
//
// The coordinator appends deliveries OUTSIDE its dispatch lock (fsync
// latency must not serialize the merge).  The crash window this opens
// is bounded and safe: a delivery merged in memory but not yet journaled
// is simply re-dispatched after restart, and worker-side retention
// re-serves it without recomputation.

// LedgerDelivery is one journaled shard delivery: the counts record the
// coordinator merged, byte for byte as the worker sent it (or as the
// coordinator's own loop encoded it for a local shard), and the node
// that delivered it.
type LedgerDelivery struct {
	Worker string
	Counts []byte
}

// LedgerState is the replayable merge state of one distributed job: the
// plan identity and span layout plus every journaled delivery, in append
// order.  Deliveries never marshal inside a plan record — they are their
// own frames — hence the "-" tag.
type LedgerState struct {
	// Fingerprint is the dispatch plan fingerprint (the exact-mode
	// fingerprint for sequential jobs — shards always run exact).
	Fingerprint uint64 `json:"fp"`
	TotalB      int64  `json:"total_b"`
	Complete    bool   `json:"complete,omitempty"`
	Rows        int    `json:"rows"`
	// Start is the resume checkpoint prefix the plan began after (0 for
	// a fresh run); spans partition [Start, TotalB).
	Start int64 `json:"start,omitempty"`
	// Seq marks a sequential-mode job; BEff, when non-nil, carries the
	// resumed checkpoint's frozen per-row effective counts so a restart
	// can re-validate the frozen mask it must merge under.
	Seq  bool    `json:"seq,omitempty"`
	BEff []int64 `json:"b_eff,omitempty"`
	// Spans are the original dispatch windows [lo, hi), contiguous over
	// [Start, TotalB).
	Spans      [][2]int64       `json:"spans"`
	Deliveries []LedgerDelivery `json:"-"`
}

// JobLedger is the coordinator's handle on one job's durable ledger: the
// state replayed from the journal (if any) plus append methods bound to
// the job's id and key.  A nil *JobLedger (journaling disabled) is valid
// and turns every method into a no-op, so the coordinator never
// branches on whether durability is configured.
type JobLedger struct {
	id       string
	key      string
	replayed *LedgerState
	appendFn func(rec *journalRecord)
}

// Replayed returns the ledger state recovered from the journal for this
// job, or nil when there is none (fresh job, or journaling disabled).
func (l *JobLedger) Replayed() *LedgerState {
	if l == nil {
		return nil
	}
	return l.replayed
}

// RecordPlan journals a fresh shard plan, superseding any previously
// journaled plan and deliveries for the job.
func (l *JobLedger) RecordPlan(st *LedgerState) {
	if l == nil || st == nil {
		return
	}
	l.appendFn(&journalRecord{T: "plan", ID: l.id, Key: l.key, Plan: st})
}

// RecordDelivery journals one accepted shard delivery.  The journal's
// live view retains d.Counts until compaction; the caller must not
// mutate it afterwards.
func (l *JobLedger) RecordDelivery(d *LedgerDelivery) {
	if l == nil || d == nil {
		return
	}
	l.appendFn(&journalRecord{T: "shard", ID: l.id, Key: l.key, Worker: d.Worker, Counts: d.Counts})
}

// ledgerFor builds the job's ledger handle, claiming any replayed state
// exactly once (a second call for the same id sees no replayed state,
// so a re-run after an in-process retry cannot double-adopt).  Returns
// nil when the manager has no journal.
func (m *Manager) ledgerFor(j *job) *JobLedger {
	if m.journal == nil {
		return nil
	}
	m.mu.Lock()
	rep := m.ledgers[j.id]
	delete(m.ledgers, j.id)
	m.mu.Unlock()
	return &JobLedger{id: j.id, key: j.key, replayed: rep, appendFn: m.journalAppend}
}
