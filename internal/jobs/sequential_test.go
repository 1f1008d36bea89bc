package jobs

import (
	"sync/atomic"
	"testing"

	"sprint/internal/core"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// seqSpec builds a submission big enough for the stopping rule to bite:
// mostly-null rows settle fast, so the job stops far short of its planned
// B.
func seqSpec(t *testing.T) Spec {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 120, Samples: 24, Classes: 2,
		DiffFraction: 0.05, EffectSize: 2.5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.B = 40000
	opt.Seed = 21
	opt.Mode = core.ModeSequential
	return Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 2, Every: 2048}
}

func TestSequentialJobLifecycle(t *testing.T) {
	spec := seqSpec(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != core.ModeSequential {
		t.Fatalf("queued status mode %q, want sequential", st.Mode)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != Done {
		t.Fatalf("final status %+v", fin)
	}
	// A finished sequential job reports the PLANNED total (so progress
	// reads 100%) and its accumulated savings.
	if fin.Total != spec.Opt.B {
		t.Fatalf("final Total = %d, want planned %d", fin.Total, spec.Opt.B)
	}
	if fin.SeqActiveRows != 0 {
		t.Fatalf("final SeqActiveRows = %d, want 0", fin.SeqActiveRows)
	}
	if fin.SeqPermsSaved <= 0 {
		t.Fatalf("final SeqPermsSaved = %d, want > 0", fin.SeqPermsSaved)
	}

	res, _, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	x, err := matrix.FromRows(spec.X)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunMatrix(x, spec.Labels, spec.Opt,
		core.RunControl{NProcs: spec.NProcs, Every: spec.Every})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sequential() || res.B != want.B || res.PlannedB != spec.Opt.B {
		t.Fatalf("result metadata: mode=%q B=%d plannedB=%d, want sequential B=%d plannedB=%d",
			res.Mode, res.B, res.PlannedB, want.B, spec.Opt.B)
	}
	sameFloats(t, "RawP", res.RawP, want.RawP)
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	for i, be := range want.BEff {
		if res.BEff[i] != be {
			t.Fatalf("BEff[%d] = %d, want %d", i, res.BEff[i], be)
		}
	}

	s := m.StatsSnapshot()
	if s.SeqRowsStopped != int64(want.SeqRowsStopped()) {
		t.Fatalf("stats SeqRowsStopped = %d, want %d", s.SeqRowsStopped, want.SeqRowsStopped())
	}
	if s.SeqPermsSaved != want.SeqPermsSaved() {
		t.Fatalf("stats SeqPermsSaved = %d, want %d", s.SeqPermsSaved, want.SeqPermsSaved())
	}
	if want.B < want.PlannedB && s.SeqJobsEarlyStopped != 1 {
		t.Fatalf("stats SeqJobsEarlyStopped = %d, want 1", s.SeqJobsEarlyStopped)
	}
}

// TestSequentialJobCrashResume is the sequential twin of
// TestCheckpointSurvivesRestart: cancel a sequential job mid-run, restart
// the manager over the same checkpoint directory, resubmit, and demand the
// finished result be bit-identical to an uninterrupted run — including the
// per-row effective counts.
func TestSequentialJobCrashResume(t *testing.T) {
	spec := seqSpec(t)
	dir := t.TempDir()
	var mgr atomic.Pointer[Manager]
	var once atomic.Bool
	m1, err := NewManager(Config{
		Workers:       1,
		CheckpointDir: dir,
		OnCheckpoint: func(id string, done, total int64) {
			if done >= 2*spec.Every && once.CompareAndSwap(false, true) {
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
		t.Skipf("job finished before the cancel landed (state %s); stopping rule fired very early", fin1.State)
	}
	m1.Close() // "daemon crash"

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
	if fin2.State != Done || fin2.ResumedFrom < 2*spec.Every {
		t.Fatalf("post-restart job %+v, want Done resumed from >= %d", fin2, 2*spec.Every)
	}

	res, _, err := m2.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	x, err := matrix.FromRows(spec.X)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunMatrix(x, spec.Labels, spec.Opt,
		core.RunControl{NProcs: spec.NProcs, Every: spec.Every})
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "RawP", res.RawP, want.RawP)
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	if res.B != want.B {
		t.Fatalf("resumed job ran %d permutations, uninterrupted runs %d", res.B, want.B)
	}
	for i, be := range want.BEff {
		if res.BEff[i] != be {
			t.Fatalf("BEff[%d] = %d after crash-resume, want %d", i, res.BEff[i], be)
		}
	}
}

// TestSequentialJobWindowInvariant: the checkpoint window paces a
// sequential job but cannot move where it stops.  One spec, under one
// content key, run on two managers with checkpoint_every 1000 and 4096,
// returns the same bits.
func TestSequentialJobWindowInvariant(t *testing.T) {
	var results []*core.Result
	for _, every := range []int64{1000, 4096} {
		m, err := NewManager(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		spec := seqSpec(t)
		spec.Every = every
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, m, st.ID); fin.State != Done {
			t.Fatalf("every %d: final status %+v", every, fin)
		}
		res, _, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	if a.B != b.B {
		t.Fatalf("checkpoint_every 1000 stopped at B %d, 4096 at %d", a.B, b.B)
	}
	sameFloats(t, "RawP", a.RawP, b.RawP)
	sameFloats(t, "AdjP", a.AdjP, b.AdjP)
	for i := range a.BEff {
		if a.BEff[i] != b.BEff[i] {
			t.Fatalf("BEff[%d]: %d vs %d", i, a.BEff[i], b.BEff[i])
		}
	}
}

// TestKeyExactModeStable pins the cache-compatibility contract: exact-mode
// content keys are byte-identical to the pre-mode engine's (an explicit
// "exact" spells the default), while sequential jobs key on mode and both
// stopping knobs.
func TestKeyExactModeStable(t *testing.T) {
	x, labels, base := dsTestMatrix(t)
	legacy, err := KeyMatrix(x, labels, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.Mode = core.ModeExact
	explicit, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if explicit != legacy {
		t.Fatal("explicit exact mode changed the content key")
	}

	opt.Mode = core.ModeSequential
	seq, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seq == legacy {
		t.Fatal("sequential mode shares the exact content key")
	}
	opt.SeqAlpha = 0.01
	seqAlpha, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SeqAlpha, opt.SeqTolerance = 0, 0.01
	seqTol, err := KeyMatrix(x, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seqAlpha == seq || seqTol == seq || seqAlpha == seqTol {
		t.Fatal("sequential stopping knobs do not reach the content key")
	}
}
