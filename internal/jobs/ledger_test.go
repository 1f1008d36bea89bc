package jobs

import (
	"testing"

	"sprint/internal/core"
)

// ledgerTestJournal opens a journal in a temp dir with one submitted job
// and returns (dir, journal, job id).
func ledgerTestJournal(t *testing.T, compactEvery int) (string, *jobJournal, string) {
	t.Helper()
	dir := t.TempDir()
	jl, _, err := openJournal(dir, compactEvery)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	id := "j000001"
	if err := jl.append(&journalRecord{
		T: "submit", ID: id, Key: "k1",
		Dataset: "sha256:abc", Labels: []int{0, 0, 1, 1}, Opt: &opt,
	}); err != nil {
		t.Fatal(err)
	}
	return dir, jl, id
}

func testPlan(rows int) *LedgerState {
	return &LedgerState{
		Fingerprint: 0xfeed, TotalB: 100, Rows: rows,
		Spans: [][2]int64{{0, 50}, {50, 100}},
	}
}

func testDelivery(lo, next, hi int64, rows int, v int64) *LedgerDelivery {
	raw := make([]int64, rows)
	adj := make([]int64, rows)
	for i := range raw {
		raw[i], adj[i] = v, v
	}
	ck := &core.Checkpoint{Fingerprint: 0xfeed, TotalB: 100, Next: next, Done: next - lo, Hi: hi, Raw: raw, Adj: adj}
	return &LedgerDelivery{Worker: "w", Counts: ck.AppendRecord(nil)}
}

// shardRecord is the journal record of testDelivery(lo, next, hi, rows, v).
func shardRecord(id, key string, lo, next, hi int64, rows int, v int64) *journalRecord {
	d := testDelivery(lo, next, hi, rows, v)
	return &journalRecord{T: "shard", ID: id, Key: key, Worker: d.Worker, Counts: d.Counts}
}

// deliveryCounts decodes a replayed delivery's counts record.
func deliveryCounts(t *testing.T, d LedgerDelivery) *core.Checkpoint {
	t.Helper()
	ck, err := core.DecodeRecord(d.Counts)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestJournalLedgerReplay pins the merge-ledger record semantics: plan +
// shard records replay into a LedgerState for the pending job, a second
// plan record RESETS the accumulated deliveries, the redispatch records
// older daemons wrote are no-ops, and a terminal record drops the ledger
// entirely.
func TestJournalLedgerReplay(t *testing.T) {
	const rows = 3
	dir, jl, id := ledgerTestJournal(t, 0)
	must := func(rec *journalRecord) {
		t.Helper()
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(&journalRecord{T: "plan", ID: id, Key: "k1", Plan: testPlan(rows)})
	must(shardRecord(id, "k1", 0, 50, 50, rows, 1))
	must(&journalRecord{T: "redispatch", ID: id, Key: "k1"})
	must(shardRecord(id, "k1", 50, 80, 100, rows, 2))
	jl.close()

	jl2, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	led := rep.Ledgers[id]
	if led == nil {
		t.Fatal("no replayed ledger for the pending job")
	}
	if led.Fingerprint != 0xfeed || led.TotalB != 100 || led.Rows != rows || len(led.Spans) != 2 {
		t.Fatalf("replayed plan drifted: %+v", led)
	}
	if len(led.Deliveries) != 2 {
		t.Fatalf("replayed %d deliveries, want 2", len(led.Deliveries))
	}
	d := deliveryCounts(t, led.Deliveries[1])
	if d.Next-d.Done != 50 || d.Next != 80 || d.Hi != 100 || d.Done != 30 || d.Raw[0] != 2 || led.Deliveries[1].Worker != "w" {
		t.Fatalf("delivery payload drifted: %+v", d)
	}

	// A fresh plan record supersedes the old plan AND its deliveries.
	if err := jl2.append(&journalRecord{T: "plan", ID: id, Key: "k1", Plan: testPlan(rows)}); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	jl3, rep3, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if led := rep3.Ledgers[id]; led == nil || len(led.Deliveries) != 0 {
		t.Fatalf("plan record did not reset deliveries: %+v", led)
	}

	// Terminal drops the ledger.
	if err := jl3.append(&journalRecord{T: "done", ID: id, Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	jl3.close()
	_, rep4, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep4.Ledgers) != 0 || len(rep4.Pending) != 0 {
		t.Fatalf("terminal job still pending: ledgers=%d pending=%d", len(rep4.Ledgers), len(rep4.Pending))
	}
}

// TestJournalLedgerCompaction pins the compaction round trip: the ledger
// survives as one plan frame plus one frame per delivery (an older
// daemon's redispatch records are dropped), and a shard record without a
// live plan is never replayed.
func TestJournalLedgerCompaction(t *testing.T) {
	const rows = 2
	dir, jl, id := ledgerTestJournal(t, 0)
	if err := jl.append(&journalRecord{T: "plan", ID: id, Key: "k1", Plan: testPlan(rows)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := jl.append(&journalRecord{T: "redispatch", ID: id, Key: "k1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.append(shardRecord(id, "k1", 0, 50, 50, rows, 9)); err != nil {
		t.Fatal(err)
	}
	if err := jl.compact(); err != nil {
		t.Fatal(err)
	}
	// submit + plan + 1 shard — the redispatch frames are gone.
	if jl.frames != 3 {
		t.Fatalf("compacted to %d frames, want 3", jl.frames)
	}
	jl.close()

	_, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	led := rep.Ledgers[id]
	if led == nil || len(led.Deliveries) != 1 || deliveryCounts(t, led.Deliveries[0]).Raw[0] != 9 {
		t.Fatalf("compacted ledger did not replay: %+v", led)
	}

	// An orphan shard record (no plan — e.g. the plan frame was lost to a
	// torn tail) must not replay: counts without a validated span layout
	// are untrustworthy.
	dir2 := t.TempDir()
	jl2, _, err := openJournal(dir2, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	for _, rec := range []*journalRecord{
		{T: "submit", ID: "j000002", Key: "k2", Dataset: "sha256:def", Labels: []int{0, 1}, Opt: &opt},
		shardRecord("j000002", "k2", 0, 50, 50, rows, 1),
	} {
		if err := jl2.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl2.close()
	_, rep2, err := openJournal(dir2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if led := rep2.Ledgers["j000002"]; led != nil {
		t.Fatalf("orphan delivery replayed without a plan: %+v", led)
	}
	if len(rep2.Pending) != 1 {
		t.Fatalf("pending = %d, want 1 (job itself still replays)", len(rep2.Pending))
	}
}
