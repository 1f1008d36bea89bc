package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"sprint/internal/microarray"
)

// runTestData builds a small two-class dataset with missing values, so the
// NaN paths are exercised too.
func runTestData(t *testing.T) (*microarray.Dataset, Options) {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 60, Samples: 14, Classes: 2,
		DiffFraction: 0.1, EffectSize: 2.5, MissingRate: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.B = 400
	opt.Seed = 17
	return data, opt
}

// sameResult compares two results bit for bit (NaN equals NaN).
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.B != want.B || got.Complete != want.Complete {
		t.Fatalf("B/Complete: got %d/%v, want %d/%v", got.B, got.Complete, want.B, want.Complete)
	}
	cmp := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: length %d, want %d", name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s[%d]: got %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	cmp("Stat", got.Stat, want.Stat)
	cmp("RawP", got.RawP, want.RawP)
	cmp("AdjP", got.AdjP, want.AdjP)
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("Order[%d]: got %d, want %d", i, got.Order[i], want.Order[i])
		}
	}
}

func TestRunProgressAndCheckpoints(t *testing.T) {
	data, opt := runTestData(t)
	var progress []int64
	var snaps []*Checkpoint
	_, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{
		NProcs: 2,
		Every:  100,
		Save:   func(c *Checkpoint) error { snaps = append(snaps, c); return nil },
		OnProgress: func(done, total int64) {
			if total != opt.B {
				t.Fatalf("total = %d, want %d", total, opt.B)
			}
			progress = append(progress, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every=100 is rounded up to the kernel batch multiple (the default
	// batch is 64, so windows end at 128, 256, 384 and the sequence end).
	// Every window reports progress; every window but the one completing
	// the run is checkpointed.
	wantDone := []int64{128, 256, 384, 400}
	if len(progress) != len(wantDone) || len(snaps) != len(wantDone)-1 {
		t.Fatalf("progress calls %v and %d checkpoints, want %v and %d", progress, len(snaps), wantDone, len(wantDone)-1)
	}
	for i, d := range wantDone {
		if progress[i] != d {
			t.Fatalf("window %d: progress %d, want %d", i, progress[i], d)
		}
		if i < len(snaps) && (snaps[i].Done != d || snaps[i].Next != d) {
			t.Fatalf("window %d: snap done %d next %d, want %d", i, snaps[i].Done, snaps[i].Next, d)
		}
	}

}

func TestRunCancelAndResume(t *testing.T) {
	data, opt := runTestData(t)
	x := mat(data.X)
	for _, fss := range []string{"y", "n"} {
		opt := opt
		opt.FixedSeedSampling = fss
		want, err := PMaxTMatrix(x, data.Labels, 1, opt)
		if err != nil {
			t.Fatal(err)
		}

		// Cancel mid-run; keep the last checkpoint.
		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		_, err = RunMatrix(x, data.Labels, opt, RunControl{
			Ctx:   ctx,
			Every: 100,
			Save: func(c *Checkpoint) error {
				last = c
				if c.Done >= 200 {
					cancel()
				}
				return nil
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fss=%s: cancelled run returned %v, want context.Canceled", fss, err)
		}
		if last == nil || last.Done != 256 {
			t.Fatalf("fss=%s: last checkpoint %+v, want Done=256", fss, last)
		}

		// A shard over [0, 37) ends off the batch grid; its counts are a
		// valid resume point all the same, because counts are a pure
		// prefix sum over the permutation sequence.
		p, err := Prepare(x, data.Labels, opt)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := RunShard(p, opt, 0, 37, RunControl{NProcs: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Resume each on a different rank count and match the collective
		// bit for bit.
		for _, from := range []*Checkpoint{last, shard.Checkpoint()} {
			got, err := RunMatrix(x, data.Labels, opt, RunControl{NProcs: 3, Every: 100, Resume: from})
			if err != nil {
				t.Fatalf("fss=%s: resume from %d: %v", fss, from.Next, err)
			}
			sameResult(t, got, want)
		}
	}
}

func TestRunRejectsForeignCheckpoint(t *testing.T) {
	data, opt := runTestData(t)
	var last *Checkpoint
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{
		Ctx: ctx, Every: 100,
		Save: func(c *Checkpoint) error { last = c; cancel(); return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	other := opt
	other.Seed++
	if _, err := RunMatrix(mat(data.X), data.Labels, other, RunControl{Resume: last}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

func TestCanonicalOptions(t *testing.T) {
	canon, err := CanonicalOptions(Options{B: 500})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Test: "t", Side: "abs", FixedSeedSampling: "y", B: 500,
		NA: DefaultNA, Nonpara: "n", MaxComplete: DefaultMaxComplete,
		Mode: ModeExact,
	}
	if canon != want {
		t.Fatalf("canonical = %+v, want %+v", canon, want)
	}
	if _, err := CanonicalOptions(Options{Test: "bogus"}); err == nil {
		t.Fatal("bogus test accepted")
	}
}
