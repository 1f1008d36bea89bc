package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// fixtureFP is the plan fingerprint of retentionFixture's analysis.
const fixtureFP = 0x22cd6749383278fe

// retentionFixture is the analysis the testdata retention files were
// written for: a manager holding its dataset, the shard request for its
// whole window [0, 400), and the record a direct RunShard computes.
func retentionFixture(t *testing.T) (*jobs.Manager, []byte, []byte) {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{Genes: 30, Samples: 12, Classes: 2, DiffFraction: 0.2, EffectSize: 2.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	x, err := matrix.FromRows(data.X)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 5}
	m, err := jobs.NewManager(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	info, _, err := m.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	prep, release, err := m.PreparedDataset(info.ID, data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	plan, err := core.PlanRun(prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fingerprint != fixtureFP || plan.TotalB != 400 {
		t.Fatalf("plan %016x B %d is not the one the fixtures were written for", plan.Fingerprint, plan.TotalB)
	}
	sc, err := core.RunShard(prep, opt, 0, 400, core.RunControl{NProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(ShardRequest{JobKey: "k", DatasetID: info.ID, Labels: data.Labels, Options: opt,
		Lo: 0, Hi: 400, TotalB: 400, Fingerprint: fixtureFP, NProcs: 1})
	return m, req, sc.Checkpoint().AppendRecord(nil)
}

// probe posts req to w's shard handler and requires a counts record.
func probe(t *testing.T, w *Worker, req []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	w.handleShard(rec, httptest.NewRequest("POST", ShardPath, bytes.NewReader(req)))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != countsContentType {
		t.Fatalf("shard answered %d %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestWorkerParentRetention: a restarted worker answers from what an
// older daemon retained.  testdata/retained holds the counts record the
// daemon retained for window [0, 400) of the fixture analysis before
// checkpoints and retained shards shared one store: it is re-delivered
// as a retained hit, bit for bit, and the file is not rewritten.
// testdata/shard_json.bin is what the daemon retained for the same
// window before shard results became counts records: it is quarantined
// on its first lookup, the window recomputes bit for bit, and the next
// restart serves the recomputed record, leaving one quarantined file.
func TestWorkerParentRetention(t *testing.T) {
	m, req, want := retentionFixture(t)
	name := "22cd6749383278fe-0-400.shard"
	for _, tc := range []struct {
		name, fixture string
		hit           bool
	}{
		{"counts record", filepath.Join("testdata", "retained", name), true},
		{"JSON", filepath.Join("testdata", "shard_json.bin"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			newW := func() *Worker {
				return NewWorker(WorkerConfig{Source: m, RetentionDir: dir, Every: 50, NProcs: 1})
			}
			w := newW()
			if got := probe(t, w, req); !bytes.Equal(got, want) {
				t.Fatal("the window's record differs from a direct RunShard")
			}
			if hits := w.Info().Worker.RetainedHits; (hits == 1) != tc.hit {
				t.Fatalf("retained hits %d, want a hit: %v", hits, tc.hit)
			}
			if tc.hit {
				after, err := os.Stat(path)
				if err != nil || !os.SameFile(before, after) {
					t.Fatalf("the retained file was rewritten (%v)", err)
				}
				return
			}
			w2 := newW()
			if got := probe(t, w2, req); !bytes.Equal(got, want) || w2.Info().Worker.RetainedHits != 1 {
				t.Fatal("restart did not serve the recomputed record")
			}
			if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 1 {
				t.Fatalf("quarantined files %v, want the one JSON file", q)
			}
		})
	}
}

// TestWorkerInfoDuringRetentionWrite: a retention write — an fsync,
// here held for 400 ms by the delay fault — never blocks the worker's
// mutex, so Info (and with it every shard probe) keeps answering while a shard's record lands on disk.
func TestWorkerInfoDuringRetentionWrite(t *testing.T) {
	m, req, _ := retentionFixture(t)
	inj, err := faultinject.Parse("retain.write:delay:ms=400")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(inj)
	defer faultinject.Disable()
	w := NewWorker(WorkerConfig{Source: m, RetentionDir: t.TempDir(), Every: 50, NProcs: 1})
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.handleShard(rec, httptest.NewRequest("POST", ShardPath, bytes.NewReader(req)))
	}()
	for {
		select {
		case <-done:
			if rec.Code != http.StatusOK {
				t.Fatalf("shard answered %d: %s", rec.Code, rec.Body.Bytes())
			}
			if st := inj.Stats(); st["retain.write:delay"] != 1 {
				t.Fatalf("injector stats %v, want one delayed retention write", st)
			}
			return
		default:
		}
		start := time.Now()
		w.Info()
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Info took %v during a retention write", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// prefixRecord is the fixture window's partial record over [lo, hi):
// counts over that range filed under the window [0, 400).
func prefixRecord(t *testing.T, m *jobs.Manager, req []byte, lo, hi int64) []byte {
	t.Helper()
	var sr ShardRequest
	if err := json.Unmarshal(req, &sr); err != nil {
		t.Fatal(err)
	}
	prep, release, err := m.PreparedDataset(sr.DatasetID, sr.Labels, sr.Options)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sc, err := core.RunShard(prep, sr.Options, lo, hi, core.RunControl{NProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck := sc.Checkpoint()
	ck.Hi = 400
	return ck.AppendRecord(nil)
}

// TestWorkerRetainedPrefixResumeRule: a retained partial seeds the
// window's compute only when the plan's resume rule accepts it for this
// window; one it rejects — here counts starting at 100 filed under the
// window [0, 400) — is ignored and the window computes from scratch.
// Either way the worker answers the record a direct RunShard computes.
func TestWorkerRetainedPrefixResumeRule(t *testing.T) {
	m, req, want := retentionFixture(t)
	for _, tc := range []struct {
		lo, hi  int64
		resumed int64
	}{{0, 200, 1}, {100, 300, 0}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "22cd6749383278fe-0-400.shard"), prefixRecord(t, m, req, tc.lo, tc.hi), 0o644); err != nil {
			t.Fatal(err)
		}
		w := NewWorker(WorkerConfig{Source: m, RetentionDir: dir, Every: 50, NProcs: 1})
		if got := probe(t, w, req); !bytes.Equal(got, want) {
			t.Fatalf("retained [%d, %d): the window's record differs from a direct RunShard", tc.lo, tc.hi)
		}
		if n := w.Info().Worker.RetainedResumes; n != tc.resumed {
			t.Fatalf("retained [%d, %d): %d retained resumes, want %d", tc.lo, tc.hi, n, tc.resumed)
		}
	}
}

// TestWorkerProbeWaitsForParking: a probe that arrives while a compute
// whose requesters all left is still parking its prefix neither joins it
// (its answer would be the partial prefix) nor races it: it waits for
// the parked record, resumes from it and answers the whole window.
func TestWorkerProbeWaitsForParking(t *testing.T) {
	m, req, want := retentionFixture(t)
	w := NewWorker(WorkerConfig{Source: m, Every: 50, NProcs: 1})
	k := "22cd6749383278fe-0-400"
	parking := &shardTask{done: make(chan struct{})} // no waiters: cancelled
	w.tasks[k] = parking
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.handleShard(rec, httptest.NewRequest("POST", ShardPath, bytes.NewReader(req)))
	}()
	// Nothing signals that the probe waits: give it 50 ms to answer early.
	select {
	case <-served:
		t.Fatalf("the probe answered %d before the parked record landed", rec.Code)
	case <-time.After(50 * time.Millisecond):
	}
	// The compute parks as computeShard and handleShard do: the record
	// lands in retention, then the task deregisters.
	w.retain.Put(k, prefixRecord(t, m, req, 0, 200))
	w.mu.Lock()
	delete(w.tasks, k)
	w.mu.Unlock()
	close(parking.done)
	<-served
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("the probe answered %d, not the window's whole record", rec.Code)
	}
	if wi := w.Info().Worker; wi.RetainedResumes != 1 || wi.InflightJoins != 0 {
		t.Fatalf("retained resumes %d, in-flight joins %d; want a resume from the parked prefix (1, 0)",
			wi.RetainedResumes, wi.InflightJoins)
	}
}
