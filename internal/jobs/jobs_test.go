package jobs

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// reference computes an analysis with the paper's collective: the
// orchestration the job service's engine is checked against.
func reference(x [][]float64, labels []int, opt core.Options) (*core.Result, error) {
	m, err := matrix.FromRows(x)
	if err != nil {
		return nil, err
	}
	return core.PMaxTMatrix(m, labels, 1, opt)
}

func testSpec(t *testing.T) Spec {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 50, Samples: 12, Classes: 2,
		DiffFraction: 0.1, EffectSize: 2.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.B = 600
	opt.Seed = 9
	return Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 2, Every: 100}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestJobMatchesMaxT(t *testing.T) {
	spec := testSpec(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Queued || st.CacheHit {
		t.Fatalf("initial status %+v", st)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != Done || fin.Done != spec.Opt.B || fin.Total != spec.Opt.B {
		t.Fatalf("final status %+v", fin)
	}
	res, _, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	sameFloats(t, "RawP", res.RawP, want.RawP)
	sameFloats(t, "Stat", res.Stat, want.Stat)
}

func TestCacheHit(t *testing.T) {
	spec := testSpec(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st1.ID)

	// An equivalent submission — different NProcs, window, and spelled-out
	// default options — is served from the cache without computing.
	spec2 := spec
	spec2.NProcs = 1
	spec2.Every = 7
	spec2.Opt.Test = "" // canonicalises to "t"
	st2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != Done || !st2.CacheHit {
		t.Fatalf("resubmission status %+v, want immediate cached Done", st2)
	}
	if st2.Key != st1.Key {
		t.Fatalf("keys differ: %s vs %s", st1.Key, st2.Key)
	}
	res1, _, err := m.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := m.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("cache hit returned a different result object")
	}
	s := m.StatsSnapshot()
	if s.CacheHits != 1 || s.Completed != 1 || s.Submitted != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCancelThenResubmitResumes(t *testing.T) {
	spec := testSpec(t)
	var mgr atomic.Pointer[Manager]
	cancelled := make(chan struct{})
	var once atomic.Bool
	m, err := NewManager(Config{
		Workers: 1,
		OnCheckpoint: func(id string, done, total int64) {
			// Deterministically cancel the first job after its second
			// window (200 of 600 permutations).
			if done >= 200 && once.CompareAndSwap(false, true) {
				if _, err := mgr.Load().Cancel(id); err != nil {
					t.Errorf("cancel: %v", err)
				}
				close(cancelled)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Store(m)
	defer m.Close()

	st1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin1 := waitTerminal(t, m, st1.ID)
	<-cancelled
	if fin1.State != Cancelled {
		t.Fatalf("first job state %s, want cancelled", fin1.State)
	}
	if fin1.Done < 200 || fin1.Done >= spec.Opt.B {
		t.Fatalf("cancelled after %d permutations, want in [200, %d)", fin1.Done, spec.Opt.B)
	}
	if _, _, err := m.Result(st1.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of cancelled job: %v, want ErrNotDone", err)
	}

	// The identical resubmission resumes from the retained checkpoint:
	// it re-runs strictly fewer permutations than B.
	st2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Fatal("resubmission was a cache hit; cancelled job must not populate the cache")
	}
	fin2 := waitTerminal(t, m, st2.ID)
	if fin2.State != Done {
		t.Fatalf("resubmission state %s (err %q)", fin2.State, fin2.Error)
	}
	if fin2.ResumedFrom < 200 {
		t.Fatalf("ResumedFrom = %d, want >= 200", fin2.ResumedFrom)
	}
	if rerun := fin2.Total - fin2.ResumedFrom; rerun >= spec.Opt.B {
		t.Fatalf("resumed job re-ran %d permutations, want < %d", rerun, spec.Opt.B)
	}

	res, _, err := m.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)

	s := m.StatsSnapshot()
	if s.Cancelled != 1 || s.Resumed != 1 || s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCancelFromCheckpointResumesAtItsBoundary: a checkpoint is written
// while the next window computes, and a DELETE issued as it is reported
// drops that window — the job stops exactly at the checkpoint's boundary,
// and the resubmission resumes from it, bit for bit, at one rank and two.
func TestCancelFromCheckpointResumesAtItsBoundary(t *testing.T) {
	for _, nprocs := range []int{1, 2} {
		for _, nth := range []int64{1, 3} {
			spec := testSpec(t)
			spec.NProcs = nprocs
			var mgr atomic.Pointer[Manager]
			var calls, cancelledAt atomic.Int64
			m, err := NewManager(Config{
				Workers: 1,
				OnCheckpoint: func(id string, done, total int64) {
					if calls.Add(1) == nth {
						cancelledAt.Store(done)
						if _, err := mgr.Load().Cancel(id); err != nil {
							t.Errorf("cancel: %v", err)
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			mgr.Store(m)
			st1, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin1 := waitTerminal(t, m, st1.ID)
			at := cancelledAt.Load()
			if fin1.State != Cancelled || at == 0 || fin1.Done != at {
				t.Fatalf("nprocs %d: first job %s after %d permutations, want cancelled after checkpoint %d at %d", nprocs, fin1.State, fin1.Done, nth, at)
			}
			st2, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin2 := waitTerminal(t, m, st2.ID)
			if fin2.State != Done || fin2.ResumedFrom != at {
				t.Fatalf("nprocs %d: resubmission %s resumed from %d (err %q), want done from %d", nprocs, fin2.State, fin2.ResumedFrom, fin2.Error, at)
			}
			res, _, err := m.Result(st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			want, err := reference(spec.X, spec.Labels, spec.Opt)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "Stat", res.Stat, want.Stat)
			sameFloats(t, "RawP", res.RawP, want.RawP)
			sameFloats(t, "AdjP", res.AdjP, want.AdjP)
			for i := range want.Order {
				if res.Order[i] != want.Order[i] {
					t.Fatalf("Order[%d] = %d, want %d", i, res.Order[i], want.Order[i])
				}
			}
			m.Close()
		}
	}
}

func TestCheckpointSurvivesRestart(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	var mgr atomic.Pointer[Manager]
	var once atomic.Bool
	m1, err := NewManager(Config{
		Workers:       1,
		CheckpointDir: dir,
		OnCheckpoint: func(id string, done, total int64) {
			if done >= 200 && once.CompareAndSwap(false, true) {
				mgr.Load().Cancel(id)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Store(m1)
	st1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin1 := waitTerminal(t, m1, st1.ID)
	if fin1.State != Cancelled {
		t.Fatalf("first job state %s", fin1.State)
	}
	m1.Close() // "daemon restart"

	m2, err := NewManager(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitTerminal(t, m2, st2.ID)
	if fin2.State != Done || fin2.ResumedFrom < 200 {
		t.Fatalf("post-restart job %+v, want Done resumed from >= 200", fin2)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := m2.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
}

func TestQueueFull(t *testing.T) {
	spec := testSpec(t)
	// Park the single worker inside the first job's first checkpoint, so
	// the depth-1 queue fills deterministically.
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	var first atomic.Bool
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 1,
		OnCheckpoint: func(id string, done, total int64) {
			if first.CompareAndSwap(false, true) {
				<-block
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer release() // unblock before Close so the worker can drain
	running, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job holds the worker so the queue is truly idle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := m.Get(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	spec2 := spec
	spec2.Opt.Seed++ // distinct key, no cache interference
	if _, err := m.Submit(spec2); err != nil {
		t.Fatal(err)
	}
	spec3 := spec
	spec3.Opt.Seed += 2
	if _, err := m.Submit(spec3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: %v, want ErrQueueFull", err)
	}
	release()
	if st := waitTerminal(t, m, running.ID); st.State != Done {
		t.Fatalf("first job %+v after release", st)
	}
}

func TestKeyExcludesNonSemanticFields(t *testing.T) {
	x, labels, base := dsTestMatrix(t)
	k1, err := KeyMatrix(x, labels, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.ScalarParams = true // wire protocol only; result-identical
	k2, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("ScalarParams changed the content key")
	}
	opt = base
	opt.Seed++
	k3, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("seed change did not change the content key")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(testSpec(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}
