package jobs

import (
	"context"
	"strings"
	"sync"
	"testing"

	"sprint/internal/core"
)

// resumeRecorder is a Distributor that runs the job locally over the
// shared preparation and records the resume checkpoint it was handed.
type resumeRecorder struct {
	mu     sync.Mutex
	calls  int
	resume *core.Checkpoint
}

func (d *resumeRecorder) RunJob(ctx context.Context, req DistRequest) (*core.Result, error) {
	d.mu.Lock()
	d.calls++
	d.resume = req.Resume
	d.mu.Unlock()
	return core.RunPrepared(req.Prepared, req.Opt, core.RunControl{
		Ctx: ctx, NProcs: req.NProcs, Resume: req.Resume, Every: req.Every,
	})
}

// TestStaleCheckpointRestartsFresh: a checkpoint that no longer validates
// (e.g. one written by an older engine version) must be discarded and the
// job recomputed from scratch — not left to fail every future submission
// of its content key — and leave no resume trace: no resumed count, no
// resume point, and no stale record handed to a distributor.
func TestStaleCheckpointRestartsFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		dist *resumeRecorder
	}{
		{"standalone", nil},
		{"distributor", &resumeRecorder{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(t)
			cfg := Config{Workers: 1}
			if tc.dist != nil {
				cfg.Distributor = tc.dist
			}
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			key, _, err := spec.contentKey()
			if err != nil {
				t.Fatal(err)
			}
			// Plant a checkpoint whose fingerprint cannot match any analysis.
			stale := &core.Checkpoint{
				Fingerprint: 0xbad,
				TotalB:      spec.Opt.B,
				Next:        100,
				Done:        100,
				Hi:          spec.Opt.B,
				Raw:         make([]int64, len(spec.X)),
				Adj:         make([]int64, len(spec.X)),
			}
			if err := m.ckpts.Put(key, stale.AppendRecord(nil)); err != nil {
				t.Fatal(err)
			}

			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitTerminal(t, m, st.ID)
			if fin.State != Done {
				t.Fatalf("job with stale checkpoint finished %+v, want done", fin)
			}
			if fin.ResumedFrom != 0 {
				t.Errorf("stale checkpoint was resumed from %d, want fresh start", fin.ResumedFrom)
			}
			if n := m.StatsSnapshot().Resumed; n != 0 {
				t.Errorf("resumed counter = %d after a rejected checkpoint, want 0", n)
			}
			if tc.dist != nil {
				tc.dist.mu.Lock()
				calls, resume := tc.dist.calls, tc.dist.resume
				tc.dist.mu.Unlock()
				if calls != 1 {
					t.Errorf("distributor ran %d times, want 1", calls)
				}
				if resume != nil {
					t.Errorf("distributor was handed the stale checkpoint %+v", resume)
				}
			}
			if rec := m.ckpts.Get(key); rec != nil {
				t.Errorf("stale record still stored under the key (%d bytes)", len(rec))
			}
			res, _, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			want, err := reference(testSpec(t).X, spec.Labels, spec.Opt)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "AdjP", res.AdjP, want.AdjP)
		})
	}
}

// flatSpec rebuilds testSpec's dataset as a flat column-major buffer —
// the R-layout payload path.
func flatSpec(t *testing.T) Spec {
	t.Helper()
	spec := testSpec(t)
	genes, samples := len(spec.X), len(spec.X[0])
	flat := make([]float64, genes*samples)
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			flat[j*genes+i] = spec.X[i][j]
		}
	}
	spec.X = nil
	spec.XFlat, spec.Genes, spec.Samples = flat, genes, samples
	return spec
}

// TestFlatSubmissionSharesKeyAndCache: the same dataset submitted row per
// gene and as a flat column-major buffer must hash to the same content
// key, so the second submission is a cache hit, and both produce the
// bit-identical result.
func TestFlatSubmissionSharesKeyAndCache(t *testing.T) {
	rows := testSpec(t)
	flat := flatSpec(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st1, err := m.Submit(rows)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st1.ID)
	res1, _, err := m.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := m.Submit(flat)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Key != st1.Key {
		t.Fatalf("flat submission key %s != rows key %s", st2.Key, st1.Key)
	}
	if st2.State != Done || !st2.CacheHit {
		t.Fatalf("flat resubmission not served from cache: %+v", st2)
	}
	res2, _, err := m.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res2.AdjP, res1.AdjP)
	sameFloats(t, "Stat", res2.Stat, res1.Stat)
}

// TestFlatSubmissionComputesCorrectly: a cold flat submission (no cache)
// must equal MaxT on the row form.
func TestFlatSubmissionComputesCorrectly(t *testing.T) {
	rows := testSpec(t)
	flat := flatSpec(t)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st, err := m.Submit(flat)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, st.ID); fin.State != Done {
		t.Fatalf("flat job finished %+v", fin)
	}
	res, _, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(rows.X, rows.Labels, rows.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "AdjP", res.AdjP, want.AdjP)
	sameFloats(t, "RawP", res.RawP, want.RawP)
}

// TestFlatSubmissionDoesNotMutateBuffer: Submit must never modify the
// caller's XFlat slice — a rejected submission (queue full, bad options)
// must be retryable verbatim, so the transpose writes a new buffer.
func TestFlatSubmissionDoesNotMutateBuffer(t *testing.T) {
	spec := flatSpec(t)
	orig := append([]float64(nil), spec.XFlat...)
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A failing submission (bad options) must leave the buffer intact.
	bad := spec
	bad.Opt.Side = "sideways"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("bad options accepted")
	}
	for i := range orig {
		if spec.XFlat[i] != orig[i] {
			t.Fatalf("failed Submit mutated XFlat at %d", i)
		}
	}
	// A successful one too: the transpose must not write in place.
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	for i := range orig {
		if spec.XFlat[i] != orig[i] {
			t.Fatalf("successful Submit mutated XFlat at %d", i)
		}
	}
}

// TestFlatSubmissionValidation rejects malformed flat payloads.
func TestFlatSubmissionValidation(t *testing.T) {
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	check := func(name string, spec Spec, wantSub string) {
		t.Helper()
		if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %v, want substring %q", name, err, wantSub)
		}
	}
	good := flatSpec(t)

	both := good
	both.X = [][]float64{{1, 2}}
	check("both payloads", both, "both X and XFlat")

	short := good
	short.XFlat = short.XFlat[:len(short.XFlat)-1]
	check("short buffer", short, "values for")

	noShape := good
	noShape.Genes, noShape.Samples = 0, 0
	check("missing shape", noShape, "positive Genes and Samples")
}
