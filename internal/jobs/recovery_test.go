package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/durable"
	"sprint/internal/faultinject"
	"sprint/internal/microarray"
)

// durableDirs is one crash-safe store layout shared across "restarts".
type durableDirs struct {
	journal, ckpt, ds string
}

func newDurableDirs(t *testing.T) durableDirs {
	t.Helper()
	root := t.TempDir()
	return durableDirs{
		journal: filepath.Join(root, "journal"),
		ckpt:    filepath.Join(root, "checkpoints"),
		ds:      filepath.Join(root, "datasets"),
	}
}

func (d durableDirs) config(workers int) Config {
	return Config{
		Workers:       workers,
		JournalDir:    d.journal,
		CheckpointDir: d.ckpt,
		DatasetDir:    d.ds,
	}
}

// waitRecoveredTerminal waits for a replayed job to surface under its
// original id and reach a terminal state.
func waitRecoveredTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := m.Get(id); err == nil && st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reappear and finish after restart", id)
	return Status{}
}

// recoverySpec is a job long enough to be interrupted mid-flight: the
// restart tests need the daemon to die while permutations are genuinely
// outstanding, so B is large relative to the checkpoint window.
func recoverySpec(t *testing.T, seed uint64) Spec {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 100, Samples: 20, Classes: 2,
		DiffFraction: 0.2, EffectSize: 2.0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.B = 100000
	opt.Seed = seed
	return Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 1, Every: 1000}
}

// TestRestartReplaysInterruptedJobs is the tentpole acceptance test: a
// manager carrying one running and several queued jobs is shut down;
// a second manager over the same directories must revive every job
// under its original id and finish each with results bitwise identical
// to an uninterrupted run.
func TestRestartReplaysInterruptedJobs(t *testing.T) {
	dirs := newDurableDirs(t)
	specs := []Spec{recoverySpec(t, 1), recoverySpec(t, 2), recoverySpec(t, 3)}

	m1, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := m1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	// Let the first job into its permutation loop, then "crash".
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m1.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if st.State == Running && st.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	m2, err := NewManager(dirs.config(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i, id := range ids {
		st := waitRecoveredTerminal(t, m2, id)
		if st.State != Done {
			t.Fatalf("job %s replayed to %s (%s), want done", id, st.State, st.Error)
		}
		res, _, err := m2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(specs[i].X, specs[i].Labels, specs[i].Opt)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, fmt.Sprintf("job %d AdjP", i), res.AdjP, want.AdjP)
		sameFloats(t, fmt.Sprintf("job %d RawP", i), res.RawP, want.RawP)
		sameFloats(t, fmt.Sprintf("job %d Stat", i), res.Stat, want.Stat)
	}
	s := m2.StatsSnapshot()
	if s.JournalReplayed != int64(len(ids)) {
		t.Fatalf("JournalReplayed %d, want %d", s.JournalReplayed, len(ids))
	}
	if s.Recovering {
		t.Fatal("still recovering after all jobs finished")
	}
}

// TestRestartResumesFromCheckpoint pins that replay does not recompute
// from zero when a durable checkpoint covers a prefix.
func TestRestartResumesFromCheckpoint(t *testing.T) {
	dirs := newDurableDirs(t)
	spec := recoverySpec(t, 7)

	ckptDone := make(chan struct{}, 8)
	cfg := dirs.config(1)
	cfg.OnCheckpoint = func(id string, done, total int64) {
		select {
		case ckptDone <- struct{}{}:
		default:
		}
	}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ckptDone:
	case <-time.After(30 * time.Second):
		t.Fatal("no checkpoint written")
	}
	if got, err := m1.Get(st.ID); err != nil || got.State.Terminal() {
		t.Fatalf("job finished before the crash (%v %v); bump recoverySpec's B", got.State, err)
	}
	m1.Close()

	m2, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitRecoveredTerminal(t, m2, st.ID)
	if fin.State != Done {
		t.Fatalf("replayed job %s (%s)", fin.State, fin.Error)
	}
	if fin.ResumedFrom <= 0 {
		t.Fatalf("ResumedFrom %d, want a checkpointed prefix", fin.ResumedFrom)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
}

// TestRestartAfterUncheckpointedFinalWindow pins the final-window rule:
// the window that completes a run writes no checkpoint, so a daemon that
// dies between that window and the done record restarts from the durable
// state the run had one window earlier.  The test stops the first manager
// in exactly that state (checkpoint and ckpt record for every window but
// the last, no done record) and requires the second to redo only the last
// window and still produce the uninterrupted result bit for bit.
func TestRestartAfterUncheckpointedFinalWindow(t *testing.T) {
	dirs := newDurableDirs(t)
	spec := recoverySpec(t, 13)
	// Windows of 1024 (Every rounds up to the kernel batch): four
	// checkpointed boundaries, then a 100-permutation window to the end.
	const lastBoundary, total = 4096, 4196
	spec.Opt.B = total

	reached, release := make(chan struct{}), make(chan struct{})
	cfg := dirs.config(1)
	cfg.OnCheckpoint = func(id string, done, tot int64) {
		if done >= tot {
			t.Errorf("checkpoint written at %d of %d: the completing window must not save", done, tot)
		}
		if done == lastBoundary {
			close(reached)
			<-release
		}
	}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("last checkpointed boundary never reached")
	}
	// Shut down while the job sits on that boundary; it observes the
	// cancellation before its final window and stays pending in the journal.
	closed := make(chan struct{})
	go func() { m1.Close(); close(closed) }()
	for m1.baseCtx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed

	cfg = dirs.config(1)
	cfg.OnCheckpoint = func(id string, done, tot int64) {
		t.Errorf("restart wrote a checkpoint at %d of %d: only the completing window was left", done, tot)
	}
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitRecoveredTerminal(t, m2, st.ID)
	if fin.State != Done {
		t.Fatalf("replayed job %s (%s)", fin.State, fin.Error)
	}
	if fin.ResumedFrom != lastBoundary {
		t.Fatalf("ResumedFrom %d, want %d: at most one window is redone", fin.ResumedFrom, lastBoundary)
	}
	res, _, err := m2.Result(st.ID)
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

// TestRestartWithCorruptCheckpoint flips bytes in the newest checkpoint
// generation: replay must quarantine it, fall back (older generation or
// B=0) and still converge to the bit-exact result.
func TestRestartWithCorruptCheckpoint(t *testing.T) {
	dirs := newDurableDirs(t)
	spec := recoverySpec(t, 9)

	ckptDone := make(chan struct{}, 8)
	cfg := dirs.config(1)
	cfg.OnCheckpoint = func(id string, done, total int64) {
		select {
		case ckptDone <- struct{}{}:
		default:
		}
	}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ckptDone:
	case <-time.After(30 * time.Second):
		t.Fatal("no checkpoint written")
	}
	if got, err := m1.Get(st.ID); err != nil || got.State.Terminal() {
		t.Fatalf("job finished before the crash (%v %v); bump recoverySpec's B", got.State, err)
	}
	m1.Close()

	// Damage every current-generation checkpoint file (not .prev).
	files, err := os.ReadDir(dirs.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".prev") || strings.HasSuffix(f.Name(), ".corrupt") {
			continue
		}
		p := filepath.Join(dirs.ckpt, f.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no checkpoint file to damage")
	}

	m2, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitRecoveredTerminal(t, m2, st.ID)
	if fin.State != Done {
		t.Fatalf("replayed job %s (%s)", fin.State, fin.Error)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	sameFloats(t, "RawP", res.RawP, want.RawP)
	if s := m2.StatsSnapshot(); s.CorruptCheckpoints == 0 {
		t.Fatal("corrupt checkpoint not counted")
	}
	// No .corrupt file remains here: the finished job's Drop removes
	// every generation — core's TestStore pins the quarantine rename
	// itself.
}

// TestRestartWithDatasetGone pins the unrecoverable path: a journaled
// job whose .spb mirror vanished is replayed as Failed — visible, with
// the reason — instead of hanging or crashing recovery.
func TestRestartWithDatasetGone(t *testing.T) {
	dirs := newDurableDirs(t)
	spec := recoverySpec(t, 4)

	m1, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	if err := os.RemoveAll(dirs.ds); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitRecoveredTerminal(t, m2, st.ID)
	if fin.State != Failed || !strings.Contains(fin.Error, "unrecoverable") {
		t.Fatalf("replayed job %s (%q), want unrecoverable failure", fin.State, fin.Error)
	}
}

// TestChaosMatrix drives the fault plane end to end over three seeds:
// inject checkpoint corruption, journal append failures and dataset
// mirror damage while jobs run, "crash", restart clean, and require
// that every result the system produces afterwards is bitwise identical
// to the uninterrupted reference.  Failed-but-visible jobs are allowed
// (that is the degraded-durability contract); wrong counts are not.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	want, wantErr := reference(recoverySpec(t, 21).X, recoverySpec(t, 21).Labels, recoverySpec(t, 21).Opt)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirs := newDurableDirs(t)
			spec := recoverySpec(t, 21)
			faultSpec := fmt.Sprintf(
				"seed=%d;ckpt.write:corrupt:n=%d;journal.append:error:n=%d;dataset.write:corrupt:n=%d",
				seed, seed, seed+3, 4-seed)
			if _, err := faultinject.Setup(faultSpec); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disable()

			m1, err := NewManager(dirs.config(1))
			if err != nil {
				t.Fatal(err)
			}
			st, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Let it make some progress under fire, then crash.
			deadline := time.Now().Add(30 * time.Second)
			for {
				got, err := m1.Get(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got.State.Terminal() || got.Done > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("job made no progress")
				}
				time.Sleep(time.Millisecond)
			}
			m1.Close()
			faultinject.Disable()

			m2, err := NewManager(dirs.config(1))
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			// Whatever survived the storm must finish correct; a job the
			// faults failed outright (or kept out of the journal) is
			// resubmitted below and must compute — or cache-hit — to the
			// exact same counts.
			deadline = time.Now().Add(30 * time.Second)
			for m2.Recovering() {
				if time.Now().After(deadline) {
					t.Fatal("recovery did not finish")
				}
				time.Sleep(2 * time.Millisecond)
			}
			if _, err := m2.Get(st.ID); err == nil {
				waitTerminal(t, m2, st.ID)
			}
			st2, err := m2.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitTerminal(t, m2, st2.ID)
			if fin.State != Done {
				t.Fatalf("post-chaos submission %s (%s)", fin.State, fin.Error)
			}
			res, _, err := m2.Result(st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "AdjP", res.AdjP, want.AdjP)
			sameFloats(t, "RawP", res.RawP, want.RawP)
			sameFloats(t, "Stat", res.Stat, want.Stat)
		})
	}
}

// TestStoredWideDesignSurvivesJournal is the poison-pill regression: a
// 3 × 130 two-sample job under fixed_seed_sampling "n" used to panic the
// worker on submit, and again on every restart over its journal.  It now
// finishes, and a manager reopens the same directories cleanly.
func TestStoredWideDesignSurvivesJournal(t *testing.T) {
	dirs := newDurableDirs(t)
	data, err := microarray.Generate(microarray.GenOptions{Genes: 3, Samples: 130, Classes: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.FixedSeedSampling, opt.B = "n", 200
	m1, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m1, st.ID); fin.State != Done {
		t.Fatalf("wide two-sample job %s (%s), want done", fin.State, fin.Error)
	}
	m1.Close()
	m2, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatalf("restart over the same journal: %v", err)
	}
	m2.Close()
}

// fixtureSpec is the job every checkpoint fixture in testdata was
// written for, its content key, and its uninterrupted result.
func fixtureSpec(t *testing.T) (Spec, string, *core.Result) {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 40, Samples: 20, Classes: 2, DiffFraction: 0.2, EffectSize: 2.0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.B, opt.Seed = 20000, 3
	spec := Spec{X: data.X, Labels: data.Labels, Opt: opt, NProcs: 1, Every: 1024}
	key, _, err := spec.contentKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != "bc6a1b1bcf7a27fb574ac9a497569284c23cb5f19e1717356c3b68e8eca8e716" {
		t.Fatalf("spec key %s is not the one the fixtures were written for", key)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	return spec, key, want
}

// TestParentCheckpointResumes: checkpoint files written by the daemon
// before checkpoints and retained shards shared one store —
// testdata/checkpoints holds a job cancelled at 4096 permutations, with
// its .prev generation at 3072 — resume the job, and the result equals
// an uninterrupted run bit for bit.  With the current file gone (a
// crash between rotation and write) the .prev generation alone resumes.
func TestParentCheckpointResumes(t *testing.T) {
	spec, key, want := fixtureSpec(t)
	for _, tc := range []struct {
		name  string
		files []string
		from  int64
	}{
		{"current", []string{".ckpt", ".ckpt.prev"}, 4096},
		{"prev only", []string{".ckpt.prev"}, 3072},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := newDurableDirs(t)
			if err := os.MkdirAll(dirs.ckpt, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, ext := range tc.files {
				data, err := os.ReadFile(filepath.Join("testdata", "checkpoints", key+ext))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dirs.ckpt, key+ext), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m, err := NewManager(dirs.config(1))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitTerminal(t, m, st.ID)
			if fin.State != Done || fin.ResumedFrom != tc.from {
				t.Fatalf("job %s (%s) resumed from %d, want done from %d", fin.State, fin.Error, fin.ResumedFrom, tc.from)
			}
			if s := m.StatsSnapshot(); s.CorruptCheckpoints != 0 {
				t.Fatalf("CorruptCheckpoints %d, want 0", s.CorruptCheckpoints)
			}
			res, _, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "AdjP", res.AdjP, want.AdjP)
			sameFloats(t, "RawP", res.RawP, want.RawP)
			sameFloats(t, "Stat", res.Stat, want.Stat)
		})
	}
}

// TestParentLexJobRecomputes: testdata/lexjob is a daemon tree written
// when a job could still pick its enumeration order and kernel batch — a
// complete Wilcoxon job submitted with perm_order "lex" and batch_size 7,
// shut down mid-run at 16 408 of 184 756 permutations.  The journal's two
// option keys are ignored on replay, the job runs under the design's own
// revolving-door order, its combinadic checkpoint fails the resume check,
// and the job recomputes from zero to the collective's bits under the
// content key it was submitted with.
func TestParentLexJobRecomputes(t *testing.T) {
	dirs := newDurableDirs(t)
	for dst, src := range map[string]string{dirs.journal: "journal", dirs.ckpt: "checkpoints", dirs.ds: "datasets"} {
		files, err := os.ReadDir(filepath.Join("testdata", "lexjob", src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join("testdata", "lexjob", src, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 100, Samples: 20, Classes: 2, DiffFraction: 0.2, EffectSize: 2.0, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{X: data.X, Labels: data.Labels, Opt: core.Options{Test: "wilcoxon", B: 0}}
	if key, _, err := spec.contentKey(); err != nil || key != "0521121e70fc0cf21366916776e13912444bf8c71b5813776f5e7b2c2c6d9bdf" {
		t.Fatalf("content key %s (%v), not the one the job was journaled under", key, err)
	}

	m, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := waitRecoveredTerminal(t, m, "j000001")
	if st.State != Done || st.ResumedFrom != 0 || m.StatsSnapshot().Resumed != 0 {
		t.Fatalf("job %s (%s) resumed from %d (%d resumed), want done from 0", st.State, st.Error, st.ResumedFrom, m.StatsSnapshot().Resumed)
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

// TestPreUpgradeCheckpointQuarantined: a checkpoint in a retired layout
// is quarantined on first load, and its job recomputes from zero to the
// uninterrupted result bit for bit.  Both fixtures were written for this
// spec by an older daemon, which resumed from them at 1024:
// testdata/spckpt01.bin in the SPCKPT01 layout, from before checkpoints
// became durable records, and testdata/ckpt_gob.bin, a durable record
// around the gob payload checkpoints carried before they became counts
// records — it passes the frame check and fails the version byte.
func TestPreUpgradeCheckpointQuarantined(t *testing.T) {
	spec, key, want := fixtureSpec(t)
	for _, fixture := range []string{"spckpt01.bin", "ckpt_gob.bin"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := durable.OnlyFrame(old); fixture == "spckpt01.bin" && string(old[:8]) != "SPCKPT01" ||
				fixture == "ckpt_gob.bin" && err != nil {
				t.Fatalf("fixture starts %q (frame: %v), not the layout it is named for", old[:8], err)
			}
			dirs := newDurableDirs(t)
			if err := os.MkdirAll(dirs.ckpt, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dirs.ckpt, key+".ckpt"), old, 0o644); err != nil {
				t.Fatal(err)
			}

			m, err := NewManager(dirs.config(1))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitTerminal(t, m, st.ID)
			if fin.State != Done || fin.ResumedFrom != 0 {
				t.Fatalf("job %s (%s) resumed from %d, want done from 0", fin.State, fin.Error, fin.ResumedFrom)
			}
			if s := m.StatsSnapshot(); s.CorruptCheckpoints != 1 {
				t.Fatalf("CorruptCheckpoints %d, want 1 (the %s file)", s.CorruptCheckpoints, fixture)
			}
			res, _, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "AdjP", res.AdjP, want.AdjP)
			sameFloats(t, "RawP", res.RawP, want.RawP)
			sameFloats(t, "Stat", res.Stat, want.Stat)
		})
	}
}

// TestPreFoldCheckpointRecomputes: testdata/prefold holds the checkpoint
// a daemon wrote for this complete Wilcoxon job before balanced complete
// enumerations folded — cancelled at 256 of C(12, 6) = 924 labellings,
// in the unfolded sequence.  The folded plan's fingerprint rejects it,
// the record is dropped, and the job recomputes from zero to the paper
// path's bits, reporting B and its progress in labellings.
func TestPreFoldCheckpointRecomputes(t *testing.T) {
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 30, Samples: 12, Classes: 2, DiffFraction: 0.2, EffectSize: 2.0, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{X: data.X, Labels: data.Labels, Opt: core.Options{Test: "wilcoxon", B: 0}, NProcs: 1, Every: 100}
	const key = "b696ab5d30911d049dea62c0222511e78886bdaf0493fe60fc65f68655e1184d"
	if got, _, err := spec.contentKey(); err != nil || got != key {
		t.Fatalf("content key %s (%v), not the one the fixture was written under", got, err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "prefold", key+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := core.DecodeRecord(old); err != nil || ck.TotalB != 924 || ck.Next != 256 {
		t.Fatalf("fixture decodes to %+v (%v), want a prefix of 256 of 924 labellings", ck, err)
	}
	dirs := newDurableDirs(t)
	if err := os.MkdirAll(dirs.ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirs.ckpt, key+".ckpt"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(dirs.config(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != Done || fin.ResumedFrom != 0 || m.StatsSnapshot().Resumed != 0 {
		t.Fatalf("job %s (%s) resumed from %d, want done from 0", fin.State, fin.Error, fin.ResumedFrom)
	}
	if fin.Done != 924 || fin.Total != 924 {
		t.Fatalf("job reports %d of %d, want 924 of 924 labellings", fin.Done, fin.Total)
	}
	res, _, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(spec.X, spec.Labels, spec.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.B != 924 || want.B != 924 {
		t.Fatalf("B = %d (reference %d), want 924", res.B, want.B)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	sameFloats(t, "RawP", res.RawP, want.RawP)
	sameFloats(t, "Stat", res.Stat, want.Stat)
}
