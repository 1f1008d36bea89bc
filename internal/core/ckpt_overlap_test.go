package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestSaveOverlapsNextWindow: a checkpoint is written while the next
// window computes.  Each Save blocks until the window after its own has
// fired OnWindow, which can only happen when the write and the window run
// side by side; a loop that waits for Save before it computes on fails
// the run by the timeout instead of hanging.  The result is bit for bit
// the uninterrupted run's, at one rank and at two.
func TestSaveOverlapsNextWindow(t *testing.T) {
	data, opt := runTestData(t)
	x := mat(data.X)
	want, err := PMaxTMatrix(x, data.Labels, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	const every = 64
	for _, nprocs := range []int{1, 2} {
		var windows atomic.Int64
		fired := make(chan struct{}, 1)
		saves := 0
		got, err := RunMatrix(x, data.Labels, opt, RunControl{
			NProcs: nprocs, Every: every,
			OnWindow: func(int64, time.Duration) {
				windows.Add(1)
				select {
				case fired <- struct{}{}:
				default:
				}
			},
			Save: func(c *Checkpoint) error {
				saves++
				own := c.Done / every // the windows merged into this snapshot
				timeout := time.After(10 * time.Second)
				for windows.Load() <= own {
					select {
					case <-fired:
					case <-timeout:
						return errors.New("the next window did not compute while the checkpoint was written")
					}
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("nprocs %d: %v", nprocs, err)
		}
		if want := int((opt.B+every-1)/every) - 1; saves != want {
			t.Fatalf("nprocs %d: %d saves, want %d", nprocs, saves, want)
		}
		sameResult(t, got, want)
	}
}

// TestSaveReturnsBeforeRun: on every way a run returns — done, cancelled,
// failed — no Save is still in flight, so the last checkpoint a Save
// reported written is durable before the caller learns the outcome.  A
// failed write stops the run at its own boundary, a cancelled one at the
// boundary of the last write, both as the synchronous loop stopped.
func TestSaveReturnsBeforeRun(t *testing.T) {
	data, opt := runTestData(t)
	x := mat(data.X)
	const every = 64
	for _, tc := range []struct {
		name     string
		cancelAt int // the Save call that cancels the run
		failAt   int // the Save call that fails
		wantErr  error
	}{
		{name: "done"},
		{name: "cancel", cancelAt: 2, wantErr: context.Canceled},
		{name: "fail", failAt: 3, wantErr: errDisk},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var inFlight atomic.Int64
		var calls int
		var last *Checkpoint // the last checkpoint written
		_, err := RunMatrix(x, data.Labels, opt, RunControl{
			Ctx: ctx, NProcs: 2, Every: every,
			Save: func(c *Checkpoint) error {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				time.Sleep(2 * time.Millisecond) // outlast the window beside it
				if calls++; calls == tc.failAt {
					return errDisk
				}
				last = c
				if calls == tc.cancelAt {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("%s: %d saves still in flight when the run returned", tc.name, n)
		}
		if tc.wantErr == nil {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.wantErr)
		}
		if last == nil || last.Done != 2*every {
			t.Fatalf("%s: last checkpoint %+v, want Done=%d", tc.name, last, 2*every)
		}
	}
}

var errDisk = errors.New("disk full")

// TestSavePanicReraised: a panic in Save, which runs on a goroutine of
// its own, surfaces on the goroutine that called the run.
func TestSavePanicReraised(t *testing.T) {
	data, opt := runTestData(t)
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the Save panic", p)
		}
	}()
	RunMatrix(mat(data.X), data.Labels, opt, RunControl{
		NProcs: 1, Every: 64,
		Save: func(*Checkpoint) error { panic("boom") },
	})
	t.Fatal("the run returned past a panicking Save")
}
