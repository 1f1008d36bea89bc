package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"sprint/internal/core"
	"sprint/internal/durable"
	"sprint/internal/faultinject"
)

// This file is the manager's write-ahead job journal: an append-only,
// fsync'd log of job lifecycle records, so that a crashed or kill -9'd
// daemon restarts knowing exactly which jobs were in flight.  On
// restart the journal is replayed, every non-terminal job is re-built
// from its submit record (dataset by content address from the disk
// mirror) and re-admitted with its ORIGINAL id; running jobs then
// resume from their newest valid checkpoint, so the recovered result is
// bitwise identical to an uninterrupted run.
//
// Each record is one durable frame (durable.AppendFrame) around a JSON
// payload, which a shard record follows with '\n' and its counts record
// (json.Marshal never writes a raw newline, so the split is
// unambiguous).  Appends are fsync'd before the submission is
// acknowledged; a failed append is cut back off the file, so the log
// always ends on a whole frame.  Replay stops at the first frame that
// fails its length or CRC check — a torn tail from a crash mid-append
// loses at most the final record, never the log — and the file is
// truncated back to the valid prefix so later appends stay readable.
//
// Record semantics (idempotent by job id; the LAST record wins):
//
//	submit  the job exists; payload rebuilds its Spec (dataset digest,
//	        labels, canonical options, nprocs/every, tenant, class)
//	plan / shard
//	        the distributed merge ledger (see ledger.go): the shard
//	        plan and accepted deliveries of a coordinator-run job,
//	        replayed so a restarted coordinator re-dispatches only
//	        undelivered windows
//	done / fail / cancel
//	        terminal — the job is never replayed
//
// Older daemons also wrote start, ckpt and redispatch records, and shard
// records with their counts spelled out in JSON; replay reads past them
// as no-ops, so those windows are dispatched again.  A running job
// resumes from the checkpoint store by content key, so no progress is
// journaled.
//
// Deliberately NOT journaled: cache hits (no work to redo) and
// shutdown-driven cancellations (a SIGTERM'd daemon's queued and
// running jobs are exactly the ones a restart must revive, so they
// keep their pending journal state).
//
// Compaction: when the live file exceeds compactEvery frames it is
// rewritten — one submit (plus its ledger) per pending job — via an
// atomic rename, bounding the log by the number of live jobs rather
// than the daemon's lifetime.

// journalRecord is one journal frame's payload.
type journalRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`
	// Key pins the content identity the replay recomputation must match;
	// a mismatch marks the record corrupt rather than running the wrong
	// analysis under a recycled id.
	Key string `json:"key,omitempty"`
	// Submit payload: the durable form of the Spec.  The matrix itself
	// never enters the journal — Dataset is the content address of its
	// .spb mirror.
	Dataset string        `json:"dataset,omitempty"`
	Labels  []int         `json:"labels,omitempty"`
	Opt     *core.Options `json:"opt,omitempty"`
	NProcs  int           `json:"nprocs,omitempty"`
	Every   int64         `json:"every,omitempty"`
	Tenant  string        `json:"tenant,omitempty"`
	Class   string        `json:"class,omitempty"`
	// Distributed merge-ledger payloads (see ledger.go): Plan for "plan"
	// records, Worker and Counts for "shard" records.  Counts rides after
	// the JSON, not in it.
	Plan   *LedgerState `json:"plan,omitempty"`
	Worker string       `json:"worker,omitempty"`
	Counts []byte       `json:"-"`
}

// journalEntry is the live, compaction-driving view of one job id.
type journalEntry struct {
	submit   *journalRecord // nil once terminal (payload released)
	terminal bool
	// ledger is the distributed merge ledger accumulated from plan/shard
	// records; nil until a plan record lands, reset by each plan record,
	// released at the terminal record.
	ledger *LedgerState
}

// pending reports whether replay must re-admit the job.
func (e *journalEntry) pending() bool { return !e.terminal && e.submit != nil }

// journalFileName is the single live journal file inside JournalDir.
const journalFileName = "journal.log"

// jobJournal owns the append fd and the live entry view.  It has its
// own mutex: appends from the Submit path run under the manager lock
// (per-id record order is the manager's state order), while ledger
// records append from the coordinator without it.
type jobJournal struct {
	mu           sync.Mutex
	path         string
	f            *os.File
	frames       int
	compactEvery int
	entries      map[string]*journalEntry
}

// journalReplay is what openJournal learned from the existing log.
type journalReplay struct {
	// Pending lists the submit records of non-terminal jobs, in id
	// order — the re-admission work list.
	Pending []*journalRecord
	// Ledgers maps pending ids to their replayed distributed merge
	// ledgers (plan + deliveries); the coordinator re-verifies each
	// delivery's counts record and span coverage before adopting.
	Ledgers map[string]*LedgerState
	// Frames and CorruptFrames count what the scan saw; MaxSeq is the
	// highest job sequence number any record named.
	Frames        int
	CorruptFrames int
	MaxSeq        int64
}

// appendFrame frames rec into buf.
func appendFrame(buf []byte, rec *journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	if rec.Counts != nil {
		payload = append(append(payload, '\n'), rec.Counts...)
	}
	return durable.AppendFrame(buf, payload), nil
}

// scanJournal walks data frame by frame, calling visit for each valid
// record.  It returns the number of valid frames, the byte length of
// the valid prefix, and whether a bad frame stopped the scan.
func scanJournal(data []byte, visit func(*journalRecord)) (frames int, validLen int, truncated bool) {
	off := 0
	for off < len(data) {
		payload, size, err := durable.NextFrame(data[off:])
		if err != nil {
			return frames, off, true
		}
		var rec journalRecord
		if i := bytes.IndexByte(payload, '\n'); i >= 0 {
			payload, rec.Counts = payload[:i], bytes.Clone(payload[i+1:])
		}
		if err := json.Unmarshal(payload, &rec); err != nil || rec.T == "" || rec.ID == "" {
			return frames, off, true
		}
		visit(&rec)
		frames++
		off += size
	}
	return frames, off, false
}

// jobSeq parses a job id of the form "j%06d" back to its sequence
// number; 0 for anything else.
func jobSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// openJournal replays (and truncates to the valid prefix of) the log in
// dir, then opens it for appending.
func openJournal(dir string, compactEvery int) (*jobJournal, *journalReplay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	if compactEvery < 1 {
		compactEvery = 4096
	}
	jl := &jobJournal{
		path:         filepath.Join(dir, journalFileName),
		compactEvery: compactEvery,
		entries:      make(map[string]*journalEntry),
	}
	rep := &journalReplay{Ledgers: make(map[string]*LedgerState)}

	data, err := os.ReadFile(jl.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	frames, validLen, truncated := scanJournal(data, func(rec *journalRecord) {
		if s := jobSeq(rec.ID); s > rep.MaxSeq {
			rep.MaxSeq = s
		}
		jl.apply(rec)
	})
	jl.frames = frames
	rep.Frames = frames
	if truncated {
		rep.CorruptFrames = 1
	}

	// Truncate the torn tail so future appends land after valid frames.
	if truncated && validLen < len(data) {
		if err := os.Truncate(jl.path, int64(validLen)); err != nil {
			return nil, nil, fmt.Errorf("jobs: truncating torn journal tail: %w", err)
		}
	}

	for _, id := range jl.pendingIDs() {
		rep.Pending = append(rep.Pending, jl.entries[id].submit)
		// Hand the replay a shallow snapshot: later appends extend the
		// live entry's slice without disturbing this header.
		if led := jl.entries[id].ledger; led != nil {
			cp := *led
			rep.Ledgers[id] = &cp
		}
	}

	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	jl.f = f
	return jl, rep, nil
}

// pendingIDs lists the ids replay must re-admit, in submission order.
func (jl *jobJournal) pendingIDs() []string {
	var ids []string
	for id, e := range jl.entries {
		if e.pending() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return jobSeq(ids[a]) < jobSeq(ids[b]) })
	return ids
}

// apply folds one record into the live entry view.  Callers hold jl.mu
// (or run before concurrency exists, in openJournal).
func (jl *jobJournal) apply(rec *journalRecord) {
	e := jl.entries[rec.ID]
	if e == nil {
		e = &journalEntry{}
		jl.entries[rec.ID] = e
	}
	switch rec.T {
	case "submit":
		e.submit, e.terminal = rec, false
	case "plan":
		// A plan supersedes any earlier plan AND its deliveries: the
		// coordinator writes one exactly when replayed state was invalid.
		if rec.Plan != nil {
			st := *rec.Plan
			st.Deliveries = nil
			e.ledger = &st
		}
	case "shard":
		// Deliveries without a live plan (the plan append itself failed)
		// are dropped: replay must never trust counts it cannot anchor to
		// a validated span layout.
		if e.ledger != nil && rec.Counts != nil {
			e.ledger.Deliveries = append(e.ledger.Deliveries, LedgerDelivery{Worker: rec.Worker, Counts: rec.Counts})
		}
	case "done", "fail", "cancel":
		e.terminal = true
		e.submit = nil // payload no longer needed; entry stays terminal
		e.ledger = nil
	}
}

// append frames rec, writes and fsyncs it, and compacts when the file
// has grown past the bound.  An append error leaves the journal open:
// durability is degraded (the caller surfaces it), service is not.
func (jl *jobJournal) append(rec *journalRecord) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return fmt.Errorf("jobs: journal closed")
	}
	jl.apply(rec)
	if err := faultinject.Before("journal.append", rec.ID); err != nil {
		return err
	}
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	end, err := jl.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	frame, fault := faultinject.MutateWrite("journal.append", frame)
	if _, err = jl.f.Write(frame); err == nil {
		err = jl.f.Sync()
	}
	if err == nil && fault == faultinject.WriteTorn {
		err = fmt.Errorf("jobs: journal append: %w", faultinject.ErrInjected)
	}
	if err != nil {
		// A partial frame would end every later replay there, losing the
		// appends after it: cut the file back to its last whole frame, or
		// stop appending if even that fails.
		if jl.f.Truncate(end) != nil {
			jl.f.Close()
			jl.f = nil
		}
		return err
	}
	jl.frames++
	if jl.frames >= jl.compactEvery {
		return jl.compactLocked()
	}
	return nil
}

// compact rewrites the journal to one submit (plus its ledger) per
// pending job, dropping terminal history.
func (jl *jobJournal) compact() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.compactLocked()
}

func (jl *jobJournal) compactLocked() error {
	var buf []byte
	frames := 0
	var err error
	for _, id := range jl.pendingIDs() {
		e := jl.entries[id]
		if buf, err = appendFrame(buf, e.submit); err != nil {
			return err
		}
		frames++
		// Rewrite the merge ledger: one plan frame plus one frame per
		// delivery.
		if e.ledger != nil {
			plan := *e.ledger
			plan.Deliveries = nil
			if buf, err = appendFrame(buf, &journalRecord{T: "plan", ID: id, Key: e.submit.Key, Plan: &plan}); err != nil {
				return err
			}
			frames++
			for _, d := range e.ledger.Deliveries {
				if buf, err = appendFrame(buf, &journalRecord{T: "shard", ID: id, Key: e.submit.Key, Worker: d.Worker, Counts: d.Counts}); err != nil {
					return err
				}
				frames++
			}
		}
	}
	if err := durable.WriteFileAtomic(jl.path, durable.Bytes(buf), "journal.compact"); err != nil {
		return err
	}
	// The rename orphaned the append fd; reopen on the new inode.  Drop
	// terminal entries from the live view — they are no longer on disk.
	if jl.f != nil {
		jl.f.Close()
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		jl.f = nil
		return err
	}
	jl.f = f
	jl.frames = frames
	for id, e := range jl.entries {
		if e.terminal {
			delete(jl.entries, id)
		}
	}
	return nil
}

// pendingCount reports non-terminal journaled jobs (Stats surface).
func (jl *jobJournal) pendingCount() int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return len(jl.pendingIDs())
}

// close releases the append fd.
func (jl *jobJournal) close() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}

// submitRecord builds the durable form of a job at admission time.
func submitRecord(j *job) *journalRecord {
	opt := j.spec.Opt
	return &journalRecord{
		T:       "submit",
		ID:      j.id,
		Key:     j.key,
		Dataset: j.ds.id,
		Labels:  j.spec.Labels,
		Opt:     &opt,
		NProcs:  j.spec.NProcs,
		Every:   j.spec.Every,
		Tenant:  j.tenant,
		Class:   j.class.String(),
	}
}
