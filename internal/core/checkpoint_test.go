package core

import (
	"bytes"
	"errors"
	"testing"
)

func TestCheckpointedMatchesPlainRun(t *testing.T) {
	x := synthMatrix(25, 12, 3, 17)
	lab := twoClass(6, 6)
	for _, fss := range []string{"y", "n"} {
		// BatchSize 1 pins the scalar engine so the requested window length
		// is used verbatim (batched runs round it up; see run_test.go).
		opt := Options{B: 200, Seed: 3, FixedSeedSampling: fss, BatchSize: 1}
		plain, err := MaxT(x, lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		var saves int
		ck, err := MaxTCheckpointed(x, lab, opt, nil, 37, func(c *Checkpoint) error {
			saves++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Six windows; the one that completes the run is not saved.
		if want := (200+36)/37 - 1; saves != want {
			t.Errorf("fss=%s: %d saves, want %d", fss, saves, want)
		}
		resultsEqual(t, "checkpointed-vs-plain/"+fss, plain, ck)
	}
}

func TestCheckpointResumeAfterInterruption(t *testing.T) {
	x := synthMatrix(20, 12, 2, 23)
	lab := twoClass(6, 6)
	for _, fss := range []string{"y", "n"} {
		opt := Options{B: 150, Seed: 9, FixedSeedSampling: fss, BatchSize: 1}
		plain, err := MaxT(x, lab, opt)
		if err != nil {
			t.Fatal(err)
		}

		// First run "crashes" after the second save: the save callback
		// persists the snapshot and then errors out.
		boom := errors.New("simulated node failure")
		var persisted *Checkpoint
		var calls int
		_, err = MaxTCheckpointed(x, lab, opt, nil, 40, func(c *Checkpoint) error {
			calls++
			persisted = c
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("fss=%s: interruption error = %v", fss, err)
		}
		if persisted == nil || persisted.Next != 80 {
			t.Fatalf("fss=%s: persisted checkpoint at %v, want Next=80", fss, persisted)
		}

		// Serialise and deserialise, as a real deployment would.
		var buf bytes.Buffer
		if err := persisted.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}

		resumed, err := MaxTCheckpointed(x, lab, opt, restored, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "resumed-vs-plain/"+fss, plain, resumed)
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	x := synthMatrix(10, 12, 1, 5)
	lab := twoClass(6, 6)
	opt := Options{B: 100, Seed: 1}
	var saved *Checkpoint
	if _, err := MaxTCheckpointed(x, lab, opt, nil, 50, func(c *Checkpoint) error {
		saved = c
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Different seed -> different permutation stream -> must refuse.
	optSeed := opt
	optSeed.Seed = 2
	if _, err := MaxTCheckpointed(x, lab, optSeed, saved, 50, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("seed change accepted: %v", err)
	}
	// Different data -> must refuse.
	x2 := synthMatrix(10, 12, 1, 6)
	if _, err := MaxTCheckpointed(x2, lab, opt, saved, 50, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("data change accepted: %v", err)
	}
	// Different B -> must refuse.
	optB := opt
	optB.B = 400
	if _, err := MaxTCheckpointed(x, lab, optB, saved, 50, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("B change accepted: %v", err)
	}
}

func TestCheckpointValidation(t *testing.T) {
	x := synthMatrix(5, 12, 1, 5)
	lab := twoClass(6, 6)
	if _, err := MaxTCheckpointed(x, lab, Options{B: 10}, nil, 0, nil); err == nil {
		t.Error("interval 0 accepted")
	}
	if _, err := MaxTCheckpointed(nil, lab, Options{B: 10}, nil, 5, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := MaxTCheckpointed(x, lab, Options{Test: "bogus"}, nil, 5, nil); err == nil {
		t.Error("bad options accepted")
	}
}

func TestDecodeCheckpointGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage checkpoint decoded")
	}
}
