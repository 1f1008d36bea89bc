package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/perm"
	"sprint/internal/rng"
)

// sameBitsNaN is sameResultBits with any NaN equal to any NaN: the fold
// must not move a bit of any number the engine reports.
func sameBitsNaN(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.B != want.B || got.Complete != want.Complete {
		t.Fatalf("%s: B/Complete %d/%v, want %d/%v", name, got.B, got.Complete, want.B, want.Complete)
	}
	for _, f := range []struct {
		field string
		g, w  []float64
	}{{"Stat", got.Stat, want.Stat}, {"RawP", got.RawP, want.RawP}, {"AdjP", got.AdjP, want.AdjP}} {
		if len(f.g) != len(f.w) {
			t.Fatalf("%s %s: length %d, want %d", name, f.field, len(f.g), len(f.w))
		}
		for i := range f.g {
			if math.Float64bits(f.g[i]) != math.Float64bits(f.w[i]) && !(math.IsNaN(f.g[i]) && math.IsNaN(f.w[i])) {
				t.Fatalf("%s %s[%d]: %v != %v", name, f.field, i, f.g[i], f.w[i])
			}
		}
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s Order[%d]: %d != %d", name, i, got.Order[i], want.Order[i])
		}
	}
}

// foldFixture draws a rows×cols matrix whose cells mix normal values
// with NaN, ±Inf and tied values at the rates special sets, plus one
// constant row, from seed.
func foldFixture(rows, cols int, seed uint64, special uint8) matrix.Matrix {
	src := rng.New(seed)
	m := matrix.New(rows, cols)
	for i := range m.Data {
		v := src.NormFloat64()
		switch r := src.Uint64n(64); {
		case r < uint64(special&7):
			v = math.NaN()
		case r < uint64(special&7)+uint64(special>>3&3):
			v = math.Inf(1 - 2*int(r&1))
		case r < 16+uint64(special>>5):
			v = math.Round(v * 2) // ties
		}
		m.Data[i] = v
	}
	for j := 0; j < cols; j++ {
		m.Data[(rows-1)*cols+j] = 1.5
	}
	return m
}

// foldLabels draws labels for test over cols columns: two-class designs
// are balanced when balanced is set, F has two (balanced) or three
// classes, paired designs flip each pair at random and block F shuffles
// each block of two or three (three when they divide cols; cols is even
// otherwise).
func foldLabels(test string, cols int, balanced bool, src *rng.Source) []int {
	lab := make([]int, cols)
	switch test {
	case "pairt":
		for j := 0; j+1 < cols; j += 2 {
			lab[j+int(src.Uint64n(2))] = 1
		}
	case "blockf":
		k := 2
		if cols%3 == 0 {
			k = 3
		}
		for b := 0; b < cols; b += k {
			for j := 0; j < k; j++ {
				lab[b+j] = j
			}
			src.Shuffle(k, func(i, j int) { lab[b+i], lab[b+j] = lab[b+j], lab[b+i] })
		}
	default:
		classes := 2
		if test == "f" && !balanced {
			classes = 3
		}
		n1 := cols / 2
		if !balanced && classes == 2 {
			n1 = 2 + int(src.Uint64n(uint64(cols-3)))
		}
		for j := range lab {
			switch {
			case classes == 3:
				lab[j] = j % 3
			case j < n1:
				lab[j] = 1
			}
		}
		src.Shuffle(cols, func(i, j int) { lab[i], lab[j] = lab[j], lab[i] })
	}
	return lab
}

// FuzzCompleteFold holds every complete plan, folded or not, to the
// paper path: on a small design with NaN, ±Inf, ties and a constant row,
// RunPrepared at one and two ranks, and RunShard over a two-shard cut
// merged and finalized, equal PMaxTMatrix — which enumerates every
// labelling — bit for bit.
func FuzzCompleteFold(f *testing.F) {
	f.Add(uint8(6), uint8(10), uint8(2), uint8(0), true, false, uint64(1), uint8(0x2b), uint16(7))
	f.Add(uint8(3), uint8(8), uint8(0), uint8(0), true, true, uint64(2), uint8(0x13), uint16(1))
	f.Add(uint8(9), uint8(12), uint8(4), uint8(0), true, false, uint64(3), uint8(0x0f), uint16(30))
	f.Add(uint8(4), uint8(9), uint8(3), uint8(2), true, false, uint64(4), uint8(0x22), uint16(5))
	f.Add(uint8(5), uint8(7), uint8(1), uint8(1), false, false, uint64(5), uint8(0x05), uint16(11))
	f.Add(uint8(2), uint8(9), uint8(5), uint8(0), true, false, uint64(6), uint8(0x41), uint16(3))
	f.Add(uint8(7), uint8(8), uint8(0), uint8(1), true, false, uint64(7), uint8(0x10), uint16(9))
	f.Add(uint8(8), uint8(6), uint8(2), uint8(2), true, true, uint64(8), uint8(0x01), uint16(4))
	f.Add(uint8(5), uint8(4), uint8(4), uint8(1), true, false, uint64(9), uint8(0x30), uint16(2))
	tests := []string{"t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf"}
	sides := []string{"abs", "upper", "lower"}
	f.Fuzz(func(t *testing.T, rows8, cols8, test8, side8 uint8, balanced, nonpara bool, seed uint64, special uint8, cut uint16) {
		rows, cols := 2+int(rows8%11), 4+int(cols8%9)
		test, side := tests[int(test8)%len(tests)], sides[int(side8)%len(sides)]
		switch {
		case test == "blockf" && cols%3 == 0:
		case test == "pairt" || test == "blockf" || balanced:
			cols &^= 1
		}
		if test == "f" && !balanced {
			cols = 9 // three classes of three
		}
		src := rng.New(seed)
		labels := foldLabels(test, cols, balanced, src)
		x := foldFixture(rows, cols, seed^0x5eed, special)
		opt := Options{Test: test, Side: side, B: 0, Nonpara: map[bool]string{true: "y", false: "n"}[nonpara]}
		want, err := PMaxTMatrix(x, labels, 1, opt)
		if err != nil {
			t.Skipf("design refused: %v", err)
		}
		p, err := Prepare(x, labels, opt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanRun(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Orbit == 2 && !foldable(mustConfig(t, opt), p.design) {
			t.Fatal("a plan folded that foldable refuses")
		}
		for _, nprocs := range []int{1, 2} {
			got, err := RunPrepared(p, opt, RunControl{NProcs: nprocs, Every: 64})
			if err != nil {
				t.Fatal(err)
			}
			sameBitsNaN(t, fmt.Sprintf("%s/%s nprocs=%d", test, side, nprocs), got, want)
		}
		at := int64(0)
		if plan.TotalB > 1 {
			at = 1 + int64(cut)%(plan.TotalB-1)
		}
		merged := maxt.NewCounts(plan.Rows)
		for _, sp := range [][2]int64{{0, at}, {at, plan.TotalB}} {
			if sp[0] == sp[1] {
				continue
			}
			sc, err := RunShard(p, opt, sp[0], sp[1], RunControl{NProcs: 1, Every: 32})
			if err != nil {
				t.Fatal(err)
			}
			merged.Merge(sc.Counts)
		}
		got, err := FinalizeCounts(p, opt, merged, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBitsNaN(t, fmt.Sprintf("%s/%s shards cut at %d", test, side, at), got, want)
	})
}

func mustConfig(t *testing.T, opt Options) config {
	t.Helper()
	cfg, err := parseOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestFoldWorkCount counts the labellings the kernel evaluates: half
// the complete count for a folded plan — a balanced two-class design
// under abs, the two-class F under any side, paired t under abs — and
// the whole count for every other complete plan.  Result.B is the
// labelling count either way.
func TestFoldWorkCount(t *testing.T) {
	bal := twoClass(6, 6)                             // C(12, 6) = 924
	unbal := twoClass(5, 7)                           // C(12, 5) = 792
	plab := []int{0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1} // 2^6 = 64
	blab := []int{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2} // 6^4 = 1296
	flab := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2} // 34 650
	x := mat(synthMatrix(20, 12, 3, 99))
	for _, tc := range []struct {
		name        string
		lab         []int
		opt         Options
		full, evals int64
	}{
		{"welch/abs", bal, Options{Test: "t"}, 924, 462},
		{"equalvar/abs", bal, Options{Test: "t.equalvar"}, 924, 462},
		{"wilcoxon/abs", bal, Options{Test: "wilcoxon"}, 924, 462},
		{"welch/nonpara", bal, Options{Test: "t", Nonpara: "y"}, 924, 462},
		{"f2/abs", bal, Options{Test: "f"}, 924, 462},
		{"f2/upper", bal, Options{Test: "f", Side: "upper"}, 924, 462},
		{"f2/lower", bal, Options{Test: "f", Side: "lower"}, 924, 462},
		{"pairt/abs", plab, Options{Test: "pairt"}, 64, 32},
		{"welch/upper", bal, Options{Test: "t", Side: "upper"}, 924, 924},
		{"wilcoxon/lower", bal, Options{Test: "wilcoxon", Side: "lower"}, 924, 924},
		{"pairt/upper", plab, Options{Test: "pairt", Side: "upper"}, 64, 64},
		{"welch/unbalanced", unbal, Options{Test: "t"}, 792, 792},
		{"f2/unbalanced", unbal, Options{Test: "f"}, 792, 792},
		{"f3", flab, Options{Test: "f"}, 34650, 34650},
		{"blockf", blab, Options{Test: "blockf"}, 1296, 1296},
	} {
		var evals int64
		tc.opt.B = 0
		res, err := RunMatrix(x, tc.lab, tc.opt, RunControl{NProcs: 2, Every: 100,
			OnWindow: func(perms int64, _ time.Duration) { evals += perms }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if evals != tc.evals || res.B != tc.full || !res.Complete {
			t.Errorf("%s: kernel evaluated %d labellings for B = %d (complete %v), want %d for %d", tc.name, evals, res.B, res.Complete, tc.evals, tc.full)
		}
	}
}

// TestUnfoldedCheckpointRecomputes: a checkpoint of the unfolded
// enumeration — what the engine wrote before complete plans folded — no
// longer resumes the same analysis: Plan.Resume rejects it on the
// fingerprint, and the run recomputes to the paper path's bits.
func TestUnfoldedCheckpointRecomputes(t *testing.T) {
	x := mat(synthMatrix(30, 12, 4, 1234))
	lab := twoClass(6, 6)
	opt := Options{Test: "wilcoxon", B: 0}
	p, err := Prepare(x, lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRun(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Orbit != 2 {
		t.Fatalf("plan orbit %d, want a folded plan", plan.Orbit)
	}
	// The unfolded plan and generator, as the engine ran them before.
	door, err := perm.NewRevolvingDoor(p.design)
	if err != nil {
		t.Fatal(err)
	}
	unfolded := plan
	unfolded.TotalB, unfolded.Orbit = door.Total(), 1
	unfolded.Fingerprint = fingerprint(mustConfig(t, opt), p.clean, p.labels, true, 1)
	counts := maxt.NewCounts(plan.Rows)
	var old *Checkpoint
	if _, err := processRange(p, unfolded, door, counts, 0, unfolded.TotalB, nil, RunControl{NProcs: 1, Every: 100,
		Save: func(c *Checkpoint) error {
			if old == nil && c.Done >= 300 {
				old = c
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	if old == nil {
		t.Fatal("no checkpoint past 300 labellings")
	}
	if _, _, err := plan.Resume(old, 0, plan.TotalB); !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "fingerprint drifted") {
		t.Fatalf("the folded plan's fingerprint did not reject an unfolded checkpoint: %v", err)
	}
	if _, err := RunPrepared(p, opt, RunControl{Resume: old}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("RunPrepared resumed an unfolded checkpoint: %v", err)
	}
	want, err := PMaxTMatrix(x, lab, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPrepared(p, opt, RunControl{NProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameResultBits(t, "recomputed", got, want)
}
