package jobs

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"os"
	"runtime"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// TestShapeProductWrapRefused: a flat submission or a registered matrix
// whose shape product wraps the int range to its cell count is refused
// before anything is sized from the shape.  The checks run on the
// functions, never through a daemon: before the fix validate passed
// these shapes and the digest allocated two rows of 2³² cells each.
func TestShapeProductWrapRefused(t *testing.T) {
	half := 1 << (bits.UintSize / 2) // half*half wraps to 0
	quarter := 1 << (bits.UintSize - 2)
	for _, spec := range []Spec{
		{XFlat: []float64{}, Genes: half, Samples: half},
		{XFlat: []float64{}, Genes: quarter, Samples: 4},
	} {
		if err := spec.validate(); err == nil {
			t.Errorf("validate accepted %d cells for %d × %d", len(spec.XFlat), spec.Genes, spec.Samples)
		}
	}
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// quarter*4 wraps to 0 = len(Data): the digest would read row 0 of an
	// empty slice, so the refusal must come first.
	if _, _, err := m.PutDataset(matrix.Matrix{Rows: quarter, Cols: 4}); err == nil {
		t.Errorf("PutDataset accepted 0 cells for %d × 4", quarter)
	}
}

// withNaNRows returns a rows×cols matrix with a NaN (of a varying
// payload) in each listed row.
func withNaNRows(rows, cols int, nanRows ...int) matrix.Matrix {
	m := matrix.New(rows, cols)
	for k := range m.Data {
		m.Data[k] = float64(k)*0.5 - 7
	}
	payloads := []uint64{0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000042}
	for q, i := range nanRows {
		m.Data[i*cols+q%cols] = math.Float64frombits(payloads[q%len(payloads)])
	}
	return m
}

// TestStreamedMirrorMatchesEncodeBytes: the dataset mirror, streamed from
// the entry's own memory, holds exactly EncodeBytes' bytes, with NaN in
// the first row, the last row, several rows and none, for odd and even
// row counts.  Under a fault schedule a torn or corrupt mirror is cut or
// flipped exactly as a single-buffer write of those bytes would be.
func TestStreamedMirrorMatchesEncodeBytes(t *testing.T) {
	cases := []struct {
		name string
		m    matrix.Matrix
	}{
		{"none-odd", withNaNRows(9, 5)},
		{"none-even", withNaNRows(8, 3)},
		{"first", withNaNRows(9, 5, 0)},
		{"last", withNaNRows(9, 5, 8)},
		{"first-and-last", withNaNRows(7, 76, 0, 6)},
		{"one-row", withNaNRows(1, 4, 0)},
		{"paper-shape", withNaNRows(6102, 76, 0, 17, 3050, 3051, 6101)},
	}
	for _, tc := range cases {
		want, err := matrix.EncodeBytes(tc.m, nil, nil, matrix.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newDSStore(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		id := DatasetDigest(tc.m)
		if err := s.writeDisk(id, tc.m); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.path(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: mirror is %d bytes and differs from EncodeBytes' %d", tc.name, len(got), len(want))
		}
	}

	m := cases[len(cases)-1].m
	want, err := matrix.EncodeBytes(m, nil, nil, matrix.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(want)
	corrupt[len(corrupt)*2/3] ^= 0x40
	for _, tc := range []struct {
		spec    string
		wantErr bool
		file    []byte
	}{
		{"dataset.write:torn", true, want[:len(want)/2]},
		{"dataset.write:corrupt", false, corrupt},
	} {
		s, err := newDSStore(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := faultinject.Setup(tc.spec); err != nil {
			t.Fatal(err)
		}
		err = s.writeDisk(DatasetDigest(m), m)
		faultinject.Disable()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: writeDisk error %v, want error %v", tc.spec, err, tc.wantErr)
		}
		got, err := os.ReadFile(s.path(DatasetDigest(m)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.file) {
			t.Errorf("%s: mirror is %d bytes, not the faulted encoding of %d", tc.spec, len(got), len(tc.file))
		}
	}
}

// waitIdle waits until a worker is blocked in the queue's pop.
func waitIdle(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !m.queue.idle() {
		if time.Now().After(deadline) {
			t.Fatal("no worker became idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits until no more goroutines run than at start.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d at start", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

type submitOutcome struct {
	st  Status
	err error
}

// submitDuringSlowMirror submits spec on its own goroutine while every
// mirror write sleeps, and waits until the preparation of the job has
// been built while Submit is still in its mirror write.
func submitDuringSlowMirror(t *testing.T, m *Manager, spec Spec) <-chan submitOutcome {
	t.Helper()
	if _, err := faultinject.Setup("dataset.write:delay:ms=400"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	before := core.PrepBuilds()
	done := make(chan submitOutcome, 1)
	go func() {
		st, err := m.Submit(spec)
		done <- submitOutcome{st, err}
	}()
	for core.PrepBuilds() == before {
		select {
		case o := <-done:
			t.Fatalf("Submit returned (%v) before the job's preparation was built", o.err)
		case <-time.After(time.Millisecond):
		}
	}
	return done
}

// TestEarlyPrepBuiltDuringMirror: with a worker idle, an inline job's
// preparation is built while Submit writes the mirror.  The job is
// charged for it exactly as a worker-built job is — the same non-zero
// profile sections, one build and no hit — and its result is bitwise
// the dataset-id twin's.  Close leaves no goroutine behind.
func TestEarlyPrepBuiltDuringMirror(t *testing.T) {
	start := runtime.NumGoroutine()
	spec := testSpec(t)
	m, err := NewManager(newDurableDirs(t).config(1))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	o := <-submitDuringSlowMirror(t, m, spec)
	if o.err != nil {
		t.Fatal(o.err)
	}
	faultinject.Disable()
	early := waitTerminal(t, m, o.st.ID)
	if early.State != Done {
		t.Fatalf("early-prep job finished %+v", early)
	}
	if st := m.StatsSnapshot(); st.PrepBuilds != 1 || st.PrepHits != 0 {
		t.Errorf("prep stats builds=%d hits=%d, want 1/0", st.PrepBuilds, st.PrepHits)
	}
	res, _, err := m.Result(o.st.ID)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	// The worker-built inline twin (no journal, so no mirror to overlap)
	// and the dataset-id twin, each on a manager of its own so neither
	// is a cache hit.
	inline, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := inline.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	worker := waitTerminal(t, inline, st.ID)
	inline.Close()
	// BroadcastParams times the collective's parameter broadcast, which a
	// job never runs; every other section is timed on both paths.
	sections := func(p core.Profile) [4]time.Duration {
		return [4]time.Duration{p.PreProcessing, p.CreateData, p.MainKernel, p.ComputePValues}
	}
	if early.Profile.BroadcastParams != 0 || worker.Profile.BroadcastParams != 0 {
		t.Errorf("BroadcastParams early %v worker %v, want 0", early.Profile.BroadcastParams, worker.Profile.BroadcastParams)
	}
	for i, d := range sections(early.Profile) {
		if d <= 0 || sections(worker.Profile)[i] <= 0 {
			t.Errorf("profile section %d: early prep %v, worker prep %v; want both non-zero", i, d, sections(worker.Profile)[i])
		}
	}

	byID, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, err := matrix.FromRows(spec.X)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := byID.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	st, err = byID.Submit(Spec{DatasetID: info.ID, Labels: spec.Labels, Opt: spec.Opt, NProcs: spec.NProcs, Every: spec.Every})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, byID, st.ID); fin.State != Done || fin.Key != early.Key {
		t.Fatalf("dataset-id twin finished %+v, key want %s", fin, early.Key)
	}
	twin, _, err := byID.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	byID.Close()
	sameFloats(t, "Stat", res.Stat, twin.Stat)
	sameFloats(t, "RawP", res.RawP, twin.RawP)
	sameFloats(t, "AdjP", res.AdjP, twin.AdjP)
	waitGoroutines(t, start)
}

// TestEarlyPrepReleasedWhenSubmitFails: a manager closed while Submit
// writes the mirror, after the early preparation started, refuses the
// job; the entry is released and no goroutine outlives the build.
func TestEarlyPrepReleasedWhenSubmitFails(t *testing.T) {
	start := runtime.NumGoroutine()
	m, err := NewManager(newDurableDirs(t).config(1))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	done := submitDuringSlowMirror(t, m, testSpec(t))
	m.Close()
	if o := <-done; !errors.Is(o.err, ErrClosed) {
		t.Fatalf("Submit across Close returned %+v, want ErrClosed", o)
	}
	if n := len(m.jobs); n != 0 {
		t.Errorf("closed manager holds %d jobs", n)
	}
	waitGoroutines(t, start)
}

// TestNoEarlyPrepWithBusyWorker: a job that will wait in the queue does
// not hold its preparation any sooner than before; it is built once a
// worker pops the job.
func TestNoEarlyPrepWithBusyWorker(t *testing.T) {
	m, err := NewManager(newDurableDirs(t).config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 500, Samples: 40, Classes: 2, DiffFraction: 0.1, EffectSize: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.B = 2000000
	long, err := m.Submit(Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 1, Every: 1000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st, _ := m.Get(long.ID); st.State != Running; st, _ = m.Get(long.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("long job never ran: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	before := core.PrepBuilds()
	st, err := m.Submit(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := core.PrepBuilds() - before; got != 0 {
		t.Fatalf("a job queued behind a busy worker built %d preparations in Submit", got)
	}
	m.mu.Lock()
	slots := len(m.jobs[st.ID].ds.preps)
	m.mu.Unlock()
	if slots != 0 {
		t.Fatalf("a queued job holds %d preparation slots", slots)
	}
	if _, err := m.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, st.ID); fin.State != Done {
		t.Fatalf("queued job finished %+v", fin)
	}
	if got := core.PrepBuilds() - before; got != 1 {
		t.Errorf("queued job built %d preparations, want 1", got)
	}
	if s := m.StatsSnapshot(); s.PrepBuilds != 2 || s.PrepHits != 0 {
		t.Errorf("prep stats builds=%d hits=%d, want 2/0", s.PrepBuilds, s.PrepHits)
	}
}

// TestSubmitPassAllocation: after a cache miss, the pass from a flat
// submission's cells to a durable entry — digest, transpose into the
// entry, streamed mirror — allocates the entry's cells and little more
// (a second full buffer for the mirror would make it 2×).
func TestSubmitPassAllocation(t *testing.T) {
	const genes, samples = 6102, 76
	flat := make([]float64, genes*samples)
	for k := range flat {
		flat[k] = float64(k%977)*0.25 - 40
	}
	flat[5] = math.NaN()
	labels := make([]int, samples)
	for j := range labels {
		labels[j] = j % 2
	}
	spec := Spec{XFlat: flat, Genes: genes, Samples: samples, Labels: labels, Opt: core.DefaultOptions()}
	s, err := newDSStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, digest, err := spec.contentKey()
	if err != nil {
		t.Fatal(err)
	}
	x, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeDisk(digest, x); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	cells := float64(8 * genes * samples)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*cells {
		t.Errorf("cells to durable entry allocated %.0f bytes = %.2f× the %.0f cell bytes, want at most 1.1×", got, got/cells, cells)
	}
}
