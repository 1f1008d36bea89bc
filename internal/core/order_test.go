package core

import (
	"errors"
	"testing"

	"sprint/internal/microarray"
	"sprint/internal/perm"
)

// orderTestData builds a dataset small enough for complete enumeration
// (12 choose 6 = 924 labellings).
func orderTestData(t *testing.T, test string) (*microarray.Dataset, Options) {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 40, Samples: 12, Classes: 2,
		DiffFraction: 0.1, EffectSize: 2.0, MissingRate: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Test = test
	opt.B = 0 // complete enumeration
	return data, opt
}

// TestPermOrderResultsIdentical asserts every enumeration order produces
// bitwise identical results — the order changes the sequence, never the
// set — serial and parallel, parametric and rank-based.  The engine picks
// the revolving door for these two-sample designs; the combinadic order
// is driven through the same window loop with perm.NewComplete, over the
// unfolded plan (every labelling once), and both must equal the paper
// collective.
func TestPermOrderResultsIdentical(t *testing.T) {
	for _, test := range []string{"t", "wilcoxon"} {
		for _, nonpara := range []string{"n", "y"} {
			data, opt := orderTestData(t, test)
			opt.Nonpara = nonpara
			want, err := collective(data.X, data.Labels, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Complete {
				t.Fatal("expected a complete enumeration")
			}
			p, err := Prepare(mat(data.X), data.Labels, opt)
			if err != nil {
				t.Fatal(err)
			}
			_, plan, err := p.planFor(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !perm.RevolvingDoorOK(p.design) {
				t.Fatalf("%s: two-sample design has no revolving-door order", test)
			}
			for _, nprocs := range []int{1, 3} {
				door, err := RunPrepared(p, opt, RunControl{NProcs: nprocs})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, door, want)

				lex, err := perm.NewComplete(p.design)
				if err != nil {
					t.Fatal(err)
				}
				unfolded := plan
				unfolded.TotalB, unfolded.Orbit = lex.Total(), 1
				counts, _, err := unfolded.Resume(nil, 0, unfolded.TotalB)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := processRange(p, unfolded, lex, counts, 0, unfolded.TotalB, nil, RunControl{NProcs: nprocs, Every: 100}); err != nil {
					t.Fatal(err)
				}
				got, err := p.finalize(unfolded, counts, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, got, want)

				par, err := collective(data.X, data.Labels, nprocs, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, par, want)
			}
		}
	}
}

// TestPermOrderCheckpointFingerprint asserts checkpoints are tied to the
// enumeration order: a prefix of counts accumulated in one order is not a
// valid resume point for another, so resuming across orders fails loudly.
// The engine picks the revolving door for every complete two-sample
// design, so the combinadic checkpoint here — the record an earlier
// engine wrote when a caller forced that order — is forged from the door
// one by re-fingerprinting it.
func TestPermOrderCheckpointFingerprint(t *testing.T) {
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 40, Samples: 12, Classes: 2,
		DiffFraction: 0.1, EffectSize: 2.0, MissingRate: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Test: "wilcoxon", B: 0} // C(12, 6) = 924 labellings
	p, err := Prepare(mat(data.X), data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	var door *Checkpoint
	if _, err := RunPrepared(p, opt, RunControl{Every: 100, Save: func(c *Checkpoint) error { door = c; return nil }}); err != nil {
		t.Fatal(err)
	}
	if door == nil {
		t.Fatal("no checkpoint saved")
	}
	cfg, err := parseOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRun(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	lex := *door
	lex.Fingerprint = fingerprint(cfg, p.clean, p.labels, false, plan.Orbit)
	if lex.Fingerprint == door.Fingerprint {
		t.Fatal("the fingerprint ignores the enumeration order")
	}
	if _, err := RunPrepared(p, opt, RunControl{Resume: &lex}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("door run resumed a combinadic checkpoint: %v", err)
	}
	res, err := RunPrepared(p, opt, RunControl{Resume: door})
	if err != nil {
		t.Fatalf("door run rejected its own checkpoint: %v", err)
	}
	want, err := PMaxTMatrix(mat(data.X), data.Labels, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
}
