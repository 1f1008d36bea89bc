package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/matrix"
)

// dsTestMatrix flattens testSpec's dataset into the engine's row-major
// matrix, the form PutDataset consumes.
func dsTestMatrix(t *testing.T) (matrix.Matrix, []int, core.Options) {
	t.Helper()
	spec := testSpec(t)
	m, err := matrix.FromRows(spec.X)
	if err != nil {
		t.Fatal(err)
	}
	return m, spec.Labels, spec.Opt
}

// TestDatasetUploadDedup: registering the same cells twice must yield the
// same id with created=false — content addressing, not versioning.
func TestDatasetUploadDedup(t *testing.T) {
	x, _, _ := dsTestMatrix(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	info1, created, err := m.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first upload not created")
	}
	if !validDatasetID(info1.ID) {
		t.Fatalf("dataset id %q is not a hex digest", info1.ID)
	}
	info2, created, err := m.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("re-upload of identical bytes claimed to create a new dataset")
	}
	if info2.ID != info1.ID {
		t.Fatalf("same bytes, different ids: %s vs %s", info1.ID, info2.ID)
	}
	if got := m.StatsSnapshot(); got.Datasets != 1 || got.DatasetsAdded != 1 {
		t.Fatalf("stats %+v, want 1 dataset added once", got)
	}
	// A different matrix must get a different id.
	y := x.Clone()
	y.Data[0]++
	info3, created, err := m.PutDataset(y)
	if err != nil || !created {
		t.Fatalf("modified upload: created=%v err=%v", created, err)
	}
	if info3.ID == info1.ID {
		t.Fatal("different cells collided on one id")
	}
}

// TestDatasetSubmissionMatchesXFlat: a dataset-id job must share the
// content key of — and return bitwise identical results to — the same
// analysis submitted as an x_flat payload.
func TestDatasetSubmissionMatchesXFlat(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)

	// Manager A computes via the flat payload path.
	ma, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	flat := flatSpec(t)
	stA, err := ma.Submit(flat)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, ma, stA.ID); fin.State != Done {
		t.Fatalf("flat job finished %+v", fin)
	}
	resA, _, err := ma.Result(stA.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Manager B computes via the dataset plane (separate manager, so no
	// result cache can mask a divergence).
	mb, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	info, _, err := mb.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := mb.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: opt, NProcs: 2, Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stB.Key != stA.Key {
		t.Fatalf("dataset key %s != x_flat key %s", stB.Key, stA.Key)
	}
	if fin := waitTerminal(t, mb, stB.ID); fin.State != Done {
		t.Fatalf("dataset job finished %+v", fin)
	}
	resB, _, err := mb.Result(stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "Stat", resB.Stat, resA.Stat)
	sameFloats(t, "RawP", resB.RawP, resA.RawP)
	sameFloats(t, "AdjP", resB.AdjP, resA.AdjP)

	// And resubmitting by dataset id hits the shared result cache.
	stC, err := mb.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if stC.State != Done || !stC.CacheHit {
		t.Fatalf("dataset resubmission not a cache hit: %+v", stC)
	}
}

// TestDatasetPrepReuse: N jobs over one registered dataset with
// different seeds must build the preparation exactly once — the
// cross-job Prep reuse the data plane exists for — and the reuse must be
// visible in both the manager stats and the process-wide
// core.PrepBuilds counter.  N inline jobs run over job-owned entries
// instead: one build each, charged to each job's profile, and no entry
// ever listed in the registry.
func TestDatasetPrepReuse(t *testing.T) {
	const jobs = 6
	for _, tc := range []struct {
		name                     string
		inline                   bool
		wantBuilds, wantDatasets int64
	}{
		{"dataset", false, 1, 1},
		{"inline", true, jobs, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, labels, opt := dsTestMatrix(t)
			m, err := NewManager(Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			spec := Spec{X: testSpec(t).X}
			if !tc.inline {
				info, _, err := m.PutDataset(x)
				if err != nil {
					t.Fatal(err)
				}
				spec = Spec{DatasetID: info.ID}
			}
			submit := func(labels []int, seed uint64) string {
				t.Helper()
				s := spec
				s.Labels, s.Opt = labels, opt
				s.Opt.Seed = seed // distinct content keys: no result-cache hits
				st, err := m.Submit(s)
				if err != nil {
					t.Fatal(err)
				}
				return st.ID
			}

			before := core.PrepBuilds()
			ids := make([]string, jobs)
			for i := range ids {
				ids[i] = submit(labels, uint64(100+i))
			}
			for _, id := range ids {
				fin := waitTerminal(t, m, id)
				if fin.State != Done {
					t.Fatalf("job %s finished %+v", id, fin)
				}
				if tc.inline && fin.Profile.PreProcessing+fin.Profile.CreateData <= 0 {
					t.Errorf("inline job %s profile %+v does not charge the prep it built", id, fin.Profile)
				}
			}
			if got := core.PrepBuilds() - before; got != tc.wantBuilds {
				t.Fatalf("%d jobs built %d preparations, want %d", jobs, got, tc.wantBuilds)
			}
			st := m.StatsSnapshot()
			if st.PrepBuilds != tc.wantBuilds || st.PrepHits != jobs-tc.wantBuilds {
				t.Fatalf("prep stats builds=%d hits=%d, want %d/%d", st.PrepBuilds, st.PrepHits, tc.wantBuilds, jobs-tc.wantBuilds)
			}
			if int64(st.Datasets) != tc.wantDatasets || st.DatasetsAdded != tc.wantDatasets || int64(len(m.Datasets())) != tc.wantDatasets {
				t.Fatalf("registry holds %d datasets (%d added, %d listed), want %d",
					st.Datasets, st.DatasetsAdded, len(m.Datasets()), tc.wantDatasets)
			}

			// A different prep key (other labels) builds one more preparation.
			swapped := append([]int(nil), labels...)
			swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
			waitTerminal(t, m, submit(swapped, 999))
			if got := core.PrepBuilds() - before; got != tc.wantBuilds+1 {
				t.Fatalf("new labels built %d preparations total, want %d", got, tc.wantBuilds+1)
			}
		})
	}
}

// TestDatasetRefBlocksEviction: a dataset pinned by a queued job must
// survive LRU pressure; once the job is terminal the pin is gone and the
// next insertion evicts it.
func TestDatasetRefBlocksEviction(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)
	gate, parked := make(chan struct{}), make(chan struct{})
	// Blocking and releasing each have their own Once: Do waits for a call
	// in flight, so one shared Once deadlocked the release against the
	// worker it had parked.
	var block, release sync.Once
	unblock := func() { release.Do(func() { close(gate) }) }
	m, err := NewManager(Config{
		Workers:          1,
		DatasetCacheSize: 1,
		// The first checkpoint of the decoy job blocks its worker, so the
		// dataset job behind it stays queued — holding its reference —
		// for as long as the test needs.
		OnCheckpoint: func(string, int64, int64) { block.Do(func() { close(parked); <-gate }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer unblock() // on any failure path

	info, _, err := m.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker with a matrix-payload job that checkpoints
	// (and therefore blocks) almost immediately.
	decoy := testSpec(t)
	decoy.Every = 50
	decoySt, err := m.Submit(decoy)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the decoy job never reached its first checkpoint")
	}
	// The dataset job queues behind it, pinning the dataset.
	dsSt, err := m.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}

	// LRU pressure: two more uploads into a cache of 1.  The pinned
	// dataset must survive both.
	for i := 0; i < 2; i++ {
		y := x.Clone()
		y.Data[0] = float64(1000 + i)
		if _, _, err := m.PutDataset(y); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, d := range m.Datasets() {
		if d.ID == info.ID {
			found = true
			if d.Refs != 1 {
				t.Fatalf("pinned dataset has %d refs, want 1", d.Refs)
			}
		}
	}
	if !found {
		t.Fatal("dataset referenced by a queued job was evicted")
	}

	// Release the worker; both jobs run to completion, dropping the pin;
	// the release-time eviction brings the store back within its bound.
	// The job's dataset survives this round — running it made it the most
	// recently used entry — but it is now evictable like any other.
	unblock()
	waitTerminal(t, m, decoySt.ID)
	if fin := waitTerminal(t, m, dsSt.ID); fin.State != Done {
		t.Fatalf("dataset job finished %+v", fin)
	}
	if got := len(m.Datasets()); got != 1 {
		t.Fatalf("registry holds %d datasets after release, want 1 (the bound)", got)
	}
	z := x.Clone()
	z.Data[0] = 7777
	if _, _, err := m.PutDataset(z); err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Datasets() {
		if d.ID == info.ID {
			t.Fatal("unpinned dataset survived fresh eviction pressure")
		}
	}
}

// TestDatasetConcurrentUploadAndSubmit exercises the registry under
// concurrent uploads, dataset submissions and flat submissions — the
// -race beat for the dataset plane.
func TestDatasetConcurrentUploadAndSubmit(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)
	m, err := NewManager(Config{Workers: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, _, err := m.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}

	const per = 4
	var wg sync.WaitGroup
	errs := make(chan error, per*3)
	jobIDs := make(chan string, per*2)
	for g := 0; g < per; g++ {
		wg.Add(3)
		go func() { // concurrent dedup uploads
			defer wg.Done()
			in, created, err := m.PutDataset(x.Clone())
			if err != nil {
				errs <- err
				return
			}
			if created || in.ID != info.ID {
				errs <- fmt.Errorf("concurrent upload diverged: created=%v id=%s", created, in.ID)
			}
		}()
		go func(seed uint64) { // dataset submissions
			defer wg.Done()
			o := opt
			o.Seed = seed
			st, err := m.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: o})
			if err != nil {
				errs <- err
				return
			}
			jobIDs <- st.ID
		}(uint64(g))
		go func(seed uint64) { // flat submissions of the same cells
			defer wg.Done()
			spec := flatSpec(t)
			spec.Opt.Seed = seed
			st, err := m.Submit(spec)
			if err != nil {
				errs <- err
				return
			}
			jobIDs <- st.ID
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	close(jobIDs)
	for err := range errs {
		t.Fatal(err)
	}
	for id := range jobIDs {
		if fin := waitTerminal(t, m, id); fin.State != Done {
			t.Fatalf("job %s finished %+v", id, fin)
		}
	}
}

// TestDatasetDiskMirror: with a dataset directory, a registered dataset
// survives a manager restart — a fresh manager serves submissions against
// the old id by reloading the mirror.
func TestDatasetDiskMirror(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)
	dir := t.TempDir()

	m1, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := m1.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st, err := m2.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: opt})
	if err != nil {
		t.Fatalf("submission against mirrored dataset: %v", err)
	}
	if fin := waitTerminal(t, m2, st.ID); fin.State != Done {
		t.Fatalf("mirrored job finished %+v", fin)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(testSpec(t).X, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
}

// TestDatasetErrors pins the failure modes of the dataset plane.
func TestDatasetErrors(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Submit(Spec{DatasetID: "0123", Labels: labels, Opt: opt}); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown dataset submit: %v, want ErrUnknownDataset", err)
	}
	if err := m.DeleteDataset("deadbeef"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown dataset delete: %v, want ErrUnknownDataset", err)
	}
	if _, err := m.Submit(Spec{DatasetID: "abc", X: [][]float64{{1}}, Labels: labels, Opt: opt}); err == nil {
		t.Error("dataset id plus matrix payload accepted")
	}
	if _, _, err := m.PutDataset(matrix.Matrix{}); err == nil {
		t.Error("empty dataset accepted")
	}

	info, _, err := m.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteDataset(info.ID); err != nil {
		t.Errorf("deleting idle dataset: %v", err)
	}
	if _, err := m.Submit(Spec{DatasetID: info.ID, Labels: labels, Opt: opt}); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("submit after delete: %v, want ErrUnknownDataset", err)
	}

}

// TestDatasetInfoIsAPureRead: info for a disk-mirrored, memory-evicted
// dataset must come from the spb header alone — no payload decode, no
// registry insertion.
func TestDatasetInfoIsAPureRead(t *testing.T) {
	x, _, _ := dsTestMatrix(t)
	dir := t.TempDir()
	m1, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := m1.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.DatasetInfoByID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genes != info.Genes || got.Samples != info.Samples || got.Bytes != info.Bytes {
		t.Fatalf("disk info %+v, want shape of %+v", got, info)
	}
	if n := len(m2.Datasets()); n != 0 {
		t.Fatalf("info request materialised %d registry entries, want 0", n)
	}
}

// TestInsertNeverEvictsItself: registering into a registry whose every
// entry is pinned must keep the new entry — a 201-confirmed id must not
// miss on its first use.
func TestInsertNeverEvictsItself(t *testing.T) {
	x, _, _ := dsTestMatrix(t)
	m, err := NewManager(Config{Workers: 1, DatasetCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, _, err := m.PutDataset(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Pin the only entry directly (what a queued job's Submit does).
	if _, err := m.datasetRef(info.ID); err != nil {
		t.Fatal(err)
	}
	y := x.Clone()
	y.Data[0] = 31337
	info2, created, err := m.PutDataset(y)
	if err != nil || !created {
		t.Fatalf("second upload: created=%v err=%v", created, err)
	}
	ids := map[string]bool{}
	for _, d := range m.Datasets() {
		ids[d.ID] = true
	}
	if !ids[info2.ID] {
		t.Fatal("freshly registered dataset was evicted by its own insertion")
	}
	if !ids[info.ID] {
		t.Fatal("pinned dataset was evicted")
	}
}

// TestDatasetMirrorFailureStillRegisters: when the disk mirror cannot be
// written the dataset must still be registered and usable; the error is
// reported alongside the id, not instead of it.
func TestDatasetMirrorFailureStillRegisters(t *testing.T) {
	x, labels, opt := dsTestMatrix(t)
	dir := t.TempDir()
	id := DatasetDigest(x)
	// A directory squatting on the mirror path makes the rename fail.
	if err := os.MkdirAll(filepath.Join(dir, id+".spb"), 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, created, err := m.PutDataset(x)
	if err == nil {
		t.Fatal("mirror write into a squatted path succeeded unexpectedly")
	}
	if !created || info.ID != id {
		t.Fatalf("mirror failure lost the registration: created=%v info=%+v", created, info)
	}
	// The id is served from memory regardless.
	st, err := m.Submit(Spec{DatasetID: id, Labels: labels, Opt: opt})
	if err != nil {
		t.Fatalf("submission against mirror-failed dataset: %v", err)
	}
	if fin := waitTerminal(t, m, st.ID); fin.State != Done {
		t.Fatalf("job finished %+v", fin)
	}
}

// TestDeleteDatasetReportsUndeletableMirror: a delete that cannot remove
// the disk mirror must fail, not confirm a deletion that would silently
// resurrect on the next reload.
func TestDeleteDatasetReportsUndeletableMirror(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{Workers: 1, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A non-empty directory at the mirror path: Stat sees it, Remove
	// cannot delete it.
	id := strings.Repeat("ab", 32)
	if err := os.MkdirAll(filepath.Join(dir, id+".spb", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteDataset(id); err == nil {
		t.Fatal("delete confirmed although the mirror still exists")
	}
}
