package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sprint/internal/core"
	"sprint/internal/faultinject"
)

func journalPath(dir string) string { return filepath.Join(dir, journalFileName) }

// writeTestJournal appends n submit records (j000001..j00000n) through
// the real append path and returns the directory.
func writeTestJournal(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	jl, _, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	for i := 1; i <= n; i++ {
		opt := core.DefaultOptions()
		rec := &journalRecord{
			T: "submit", ID: fmt.Sprintf("j%06d", i), Key: fmt.Sprintf("k%d", i),
			Dataset: "sha256:abc", Labels: []int{0, 0, 1, 1}, Opt: &opt,
		}
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJournalTornTailEveryByte is the crash-mid-append property test: a
// journal cut at ANY byte offset must reopen cleanly, replay exactly the
// records whose frames fit in the prefix, and accept appends afterwards.
func TestJournalTornTailEveryByte(t *testing.T) {
	const n = 4
	dir := writeTestJournal(t, n)
	full, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, to know how many records each prefix holds.
	var bounds []int
	off := 0
	for off < len(full) {
		sz := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += 12 + sz
		bounds = append(bounds, off)
	}
	if len(bounds) != n {
		t.Fatalf("found %d frames, want %d", len(bounds), n)
	}
	wantRecords := func(cut int) int {
		k := 0
		for _, b := range bounds {
			if b <= cut {
				k++
			}
		}
		return k
	}

	for cut := 0; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(journalPath(dir2), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jl, rep, err := openJournal(dir2, 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := wantRecords(cut)
		if len(rep.Pending) != want {
			t.Fatalf("cut %d: %d pending, want %d", cut, len(rep.Pending), want)
		}
		// A mid-frame cut counts as corruption and must have been
		// truncated back to the last valid frame.
		if cut > 0 && want < n && rep.CorruptFrames == 0 && cut != bounds[want-1] {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		// The journal stays appendable after a torn tail.
		opt := core.DefaultOptions()
		if err := jl.append(&journalRecord{T: "submit", ID: "j999999", Key: "kx", Opt: &opt}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		jl.close()
		_, rep2, err := openJournal(dir2, 0)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(rep2.Pending) != want+1 {
			t.Fatalf("cut %d: %d pending after append, want %d", cut, len(rep2.Pending), want+1)
		}
	}
}

// TestJournalCRCFlip flips each byte of the middle record's payload in
// turn; replay must stop at the damaged frame every time (never crash,
// never deliver the mangled record).
func TestJournalCRCFlip(t *testing.T) {
	dir := writeTestJournal(t, 3)
	full, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Locate frame 2.
	sz0 := int(uint32(full[0]) | uint32(full[1])<<8 | uint32(full[2])<<16 | uint32(full[3])<<24)
	f1 := 12 + sz0
	sz1 := int(uint32(full[f1]) | uint32(full[f1+1])<<8 | uint32(full[f1+2])<<16 | uint32(full[f1+3])<<24)
	for off := f1; off < f1+12+sz1; off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x01
		dir2 := t.TempDir()
		if err := os.WriteFile(journalPath(dir2), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, rep, err := openJournal(dir2, 0)
		if err != nil {
			t.Fatalf("flip@%d: %v", off, err)
		}
		jl.close()
		if rep.CorruptFrames == 0 {
			t.Fatalf("flip@%d: corruption not counted", off)
		}
		// Only the record before the damage survives; the flipped frame
		// and everything after it is dropped whole.
		if len(rep.Pending) != 1 || rep.Pending[0].ID != "j000001" {
			t.Fatalf("flip@%d: pending %v", off, rep.Pending)
		}
	}
}

// TestJournalLastRecordWins pins the idempotent-by-id semantics:
// duplicate submits collapse to one entry, a terminal record removes
// the job from replay no matter how many earlier records name it, and
// the start and ckpt records older daemons wrote change nothing.
func TestJournalLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	sub := func(id string) *journalRecord {
		return &journalRecord{T: "submit", ID: id, Key: "k-" + id, Opt: &opt}
	}
	for _, rec := range []*journalRecord{
		sub("j000001"), sub("j000001"), // duplicate submit
		{T: "start", ID: "j000001", Key: "k-j000001"},
		sub("j000002"),
		{T: "ckpt", ID: "j000002", Key: "k-j000002"},
		sub("j000003"),
		{T: "done", ID: "j000003"},
		sub("j000004"),
		{T: "cancel", ID: "j000004"},
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()

	_, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 2 {
		t.Fatalf("pending %d, want 2 (got %+v)", len(rep.Pending), rep.Pending)
	}
	if rep.Pending[0].ID != "j000001" || rep.Pending[1].ID != "j000002" {
		t.Fatalf("pending order %v", rep.Pending)
	}
	if rep.MaxSeq != 4 {
		t.Fatalf("MaxSeq %d, want 4", rep.MaxSeq)
	}
}

// TestJournalCompaction verifies the size bound: terminal churn is
// rewritten away, pending jobs (and their ledgers) survive, and the
// reopened append fd lands on the new inode.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("j%06d", i)
		if err := jl.append(&journalRecord{T: "submit", ID: id, Key: "k" + id, Opt: &opt}); err != nil {
			t.Fatal(err)
		}
		if i < 20 { // the last job stays live
			if err := jl.append(&journalRecord{T: "done", ID: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jl.append(&journalRecord{T: "plan", ID: "j000020", Key: "kj000020", Plan: testPlan(2)}); err != nil {
		t.Fatal(err)
	}
	if jl.frames >= 8 {
		t.Fatalf("journal not compacted: %d frames", jl.frames)
	}
	// Appends after compaction must reach the NEW file, not the orphaned
	// pre-rename inode.
	if err := jl.append(shardRecord("j000020", "kj000020", 0, 50, 50, 2, 4)); err != nil {
		t.Fatal(err)
	}
	jl.close()

	_, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].ID != "j000020" {
		t.Fatalf("pending after compaction: %+v", rep.Pending)
	}
	if led := rep.Ledgers["j000020"]; led == nil || len(led.Deliveries) != 1 {
		t.Fatalf("ledger lost in compaction: %+v", led)
	}
}

// TestJournalFailedAppendKeepsLaterRecords: an append that fails after
// writing part of its frame is cut back off the file, so the records
// appended after it still replay.
func TestJournalFailedAppendKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("journal.append:torn:n=2")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(inj)
	t.Cleanup(faultinject.Disable)
	opt := core.DefaultOptions()
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("j%06d", i)
		err := jl.append(&journalRecord{T: "submit", ID: id, Key: "k" + id, Opt: &opt})
		if (i == 2) != (err != nil) {
			t.Fatalf("append %s: err=%v", id, err)
		}
	}
	faultinject.Disable()
	jl.close()

	_, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFrames != 0 || len(rep.Pending) != 2 ||
		rep.Pending[0].ID != "j000001" || rep.Pending[1].ID != "j000003" {
		t.Fatalf("replay after a torn append: corrupt=%d pending=%+v, want j000001 and j000003",
			rep.CorruptFrames, rep.Pending)
	}
}

// TestJournalReplaysOlderFormat replays a journal written by the daemon
// before start, ckpt and redispatch records were retired
// (testdata/journal_v1.log: every record kind, terminal and pending jobs,
// a re-plan and an orphan delivery).  The pending set, the plans and the
// scan counts must equal what that daemon replayed from the same bytes
// (testdata/journal_v1.want.json).  Its shard records spell their counts
// out in JSON, which replay reads as no-ops: the ledgers keep their plans
// with no deliveries, so those windows are dispatched again.
func TestJournalReplaysOlderFormat(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "journal_v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal_v1.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, rep, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()

	type ledger struct {
		Plan       *LedgerState     `json:"plan"`
		Deliveries []LedgerDelivery `json:"deliveries"`
	}
	got := struct {
		Pending       []*journalRecord   `json:"pending"`
		Ledgers       map[string]*ledger `json:"ledgers"`
		MaxSeq        int64              `json:"max_seq"`
		Frames        int                `json:"frames"`
		CorruptFrames int                `json:"corrupt_frames"`
	}{rep.Pending, map[string]*ledger{}, rep.MaxSeq, rep.Frames, rep.CorruptFrames}
	for id, led := range rep.Ledgers {
		plan := *led
		plan.Deliveries = nil
		got.Ledgers[id] = &ledger{&plan, led.Deliveries}
	}
	js, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(js)+"\n" != string(want) {
		t.Fatalf("replay of the older journal differs:\ngot  %s\nwant %s", js, want)
	}
}

// FuzzJournalScan drives scanJournal with arbitrary bytes.  It never
// panics, stops inside the input, reports a truncation exactly when it
// stops short of the end, and re-scanning the valid prefix it reports
// visits the same records.
func FuzzJournalScan(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "journal_v1.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// The current format: a shard record carries its counts frame after
	// the JSON.
	opt := core.DefaultOptions()
	var log []byte
	for _, rec := range []*journalRecord{
		{T: "submit", ID: "j000001", Key: "k1", Dataset: "sha256:abc", Labels: []int{0, 0, 1, 1}, Opt: &opt},
		{T: "plan", ID: "j000001", Key: "k1", Plan: testPlan(2)},
		shardRecord("j000001", "k1", 0, 50, 50, 2, 3),
	} {
		if log, err = appendFrame(log, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(log)
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*journalRecord
		frames, validLen, truncated := scanJournal(data, func(rec *journalRecord) { recs = append(recs, rec) })
		if validLen < 0 || validLen > len(data) || frames != len(recs) || truncated != (validLen < len(data)) {
			t.Fatalf("scan of %d bytes: %d frames (%d visited), valid %d, truncated %v",
				len(data), frames, len(recs), validLen, truncated)
		}
		var again []*journalRecord
		frames2, validLen2, truncated2 := scanJournal(data[:validLen], func(rec *journalRecord) { again = append(again, rec) })
		if frames2 != frames || validLen2 != validLen || truncated2 || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-scan of the valid prefix: %d frames, valid %d, truncated %v; want %d, %d",
				frames2, validLen2, truncated2, frames, validLen)
		}
	})
}
