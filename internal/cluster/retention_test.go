package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sprint/internal/core"
	"sprint/internal/durable"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// retainedRecord is a complete counts record for the window [lo, hi).
func retainedRecord(lo, hi int64) (retainKey, []byte) {
	ck := &core.Checkpoint{
		Fingerprint: 0xfeedface, TotalB: 1000, Next: hi, Done: hi - lo, Hi: hi,
		Raw: []int64{3, 1, 4}, Adj: []int64{1, 5, 9},
	}
	return retainKey{ck.Fingerprint, lo, hi}, ck.AppendRecord(nil)
}

// TestRetentionReloadServesWithoutRewrite: a worker restart loads each
// valid retained file into memory and serves it; the file itself is
// left alone (same inode, no atomic rewrite).
func TestRetentionReloadServesWithoutRewrite(t *testing.T) {
	dir := t.TempDir()
	rt, err := newRetention(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, want := retainedRecord(0, 100)
	rt.put(k, want, true)
	before, err := os.Stat(rt.fileName(k))
	if err != nil {
		t.Fatal(err)
	}

	rt2, err := newRetention(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, complete := rt2.get(k); !bytes.Equal(got, want) || !complete {
		t.Fatalf("reloaded %x (complete %v), want %x", got, complete, want)
	}
	after, err := os.Stat(rt2.fileName(k))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("reload rewrote the retained file")
	}
}

// TestRetentionReloadQuarantinesCorrupt: a retained file with a flipped
// byte, a truncated one, one whose CRC word is wrong, one whose frame
// verifies around a record of another version, and the JSON an older
// daemon retained are each moved to .corrupt on reload and never served.
// The older daemon's file is quarantined once, and its window recomputes
// bit for bit.
func TestRetentionReloadQuarantinesCorrupt(t *testing.T) {
	k, framed := retainedRecord(0, 100)
	wrongCRC := bytes.Clone(framed)
	wrongCRC[4] ^= 0x01
	flipped := bytes.Clone(framed)
	flipped[len(flipped)/2] ^= 0x01
	v2 := bytes.Clone(framed[durable.FrameHeader:])
	v2[0] = 2
	parentJSON, err := os.ReadFile(filepath.Join("testdata", "shard_json.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"flipped byte":    flipped,
		"truncated":       framed[:len(framed)-5],
		"wrong CRC":       wrongCRC,
		"unknown version": durable.AppendFrame(nil, v2),
		"parent JSON":     parentJSON,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := (&retention{dir: dir}).fileName(k)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rt, err := newRetention(dir, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rt.get(k); got != nil || rt.size() != 0 {
				t.Fatalf("corrupt file served: %x (size %d)", got, rt.size())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still at its path: %v", err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
		})
	}

	// testdata/shard_json.bin is what the daemon retained for window
	// [0, 400) of this analysis before shard results became counts
	// records, under the name it wrote.
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
	defer m.Close()
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
	const fixtureFP = 0x22cd6749383278fe
	if plan.Fingerprint != fixtureFP || plan.TotalB != 400 {
		t.Fatalf("plan %016x B %d is not the one the fixture was written for", plan.Fingerprint, plan.TotalB)
	}
	dir := t.TempDir()
	pk := retainKey{fixtureFP, 0, 400}
	path := (&retention{dir: dir}).fileName(pk)
	if err := os.WriteFile(path, parentJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	newW := func() *Worker {
		return NewWorker(WorkerConfig{Source: m, RetentionDir: dir, Every: 50, NProcs: 1})
	}
	w := newW()
	if w.retain.size() != 0 {
		t.Fatal("the older daemon's JSON was loaded")
	}
	req, _ := json.Marshal(ShardRequest{JobKey: "k", DatasetID: info.ID, Labels: data.Labels, Options: opt,
		Lo: 0, Hi: 400, TotalB: 400, Fingerprint: fixtureFP, NProcs: 1})
	rec := httptest.NewRecorder()
	w.handleShard(rec, httptest.NewRequest("POST", ShardPath, bytes.NewReader(req)))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != countsContentType {
		t.Fatalf("shard answered %d %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	sc, err := core.RunShard(prep, opt, 0, 400, core.RunControl{NProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := sc.Checkpoint().AppendRecord(nil); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("recomputed window differs from a direct RunShard")
	}
	if hits := w.Info().Worker.RetainedHits; hits != 0 {
		t.Fatalf("retained hits %d: the quarantined JSON was served", hits)
	}
	// Once: the recomputed record replaced it on disk and the next
	// restart serves that, leaving the one quarantined file.
	if got, complete := newW().retain.get(pk); !bytes.Equal(got, rec.Body.Bytes()) || !complete {
		t.Fatal("restart did not reload the recomputed record")
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 1 {
		t.Fatalf("quarantined files %v, want the one JSON file", q)
	}
}
