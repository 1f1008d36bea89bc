package jobs

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/core"
	"sprint/internal/matrix"
)

// sweepMatrix builds an NA-bearing, quantized (tie-heavy) matrix.
func sweepMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	}
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float64(next()%32)/4 - 4
		}
		if i%3 == 2 {
			row[int(next()%uint64(cols))] = math.NaN()
		}
	}
	return m
}

// TestBatchSizeInvariance is the end-to-end property sweep over how a
// job's work is cut: for every test × side × nonpara setting on random
// NA-bearing, unbalanced, tied designs, runs at every rank count and
// window length (each window a whole number of the engine's kernel
// batches) must produce bitwise equal statistics and p-values — equal to
// the paper collective's, which cuts the sequence into batch-aligned rank
// chunks instead — under one content key and one checkpoint fingerprint.
// The batch itself is a constant of the engine; its own axis runs at the
// counting layer (maxt.TestProcessBatchedCountsEqualProcess).
func TestBatchSizeInvariance(t *testing.T) {
	designs := []struct {
		name   string
		test   string
		labels []int
	}{
		{"t-balanced", "t", []int{0, 1, 0, 1, 1, 0, 1, 0}},
		{"t-unbalanced", "t", []int{0, 0, 1, 1, 1, 1, 1, 1, 1}},
		{"t.equalvar", "t.equalvar", []int{0, 0, 0, 1, 1, 1, 1, 1}},
		{"wilcoxon", "wilcoxon", []int{0, 0, 0, 0, 1, 1, 1, 1, 1}},
		{"f", "f", []int{0, 0, 0, 1, 1, 1, 2, 2, 2}},
		{"pairt", "pairt", []int{0, 1, 1, 0, 0, 1, 1, 0}},
		{"blockf", "blockf", []int{0, 1, 2, 2, 0, 1, 1, 2, 0}},
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, d := range designs {
		d := d
		t.Run(d.name, func(t *testing.T) {
			m := sweepMatrix(13, len(d.labels), 0xabc^uint64(len(d.labels)))
			x := make([][]float64, m.Rows)
			for i := range x {
				x[i] = m.Row(i)
			}
			for _, side := range []string{"abs", "upper", "lower"} {
				for _, nonpara := range []string{"n", "y"} {
					opt := core.Options{Test: d.test, Side: side, Nonpara: nonpara, B: 101, Seed: 23}
					wantKey, err := KeyMatrix(m, d.labels, opt)
					if err != nil {
						t.Fatal(err)
					}
					prepared, err := core.Prepare(m, d.labels, opt)
					if err != nil {
						t.Fatal(err)
					}
					// The fingerprint comes from the plan, not from a saved
					// checkpoint: a run that fits one window saves none.
					// Checkpoints that are saved must carry it.
					plan, err := core.PlanRun(prepared, opt)
					if err != nil {
						t.Fatal(err)
					}
					fp := plan.Fingerprint
					want, err := core.PMaxTMatrix(m, d.labels, 1, opt)
					if err != nil {
						t.Fatal(err)
					}
					check := func(how string, res *core.Result) {
						t.Helper()
						for i := range want.Stat {
							if !same(res.Stat[i], want.Stat[i]) {
								t.Fatalf("side=%s np=%s %s row %d: stat %v != %v", side, nonpara, how, i, res.Stat[i], want.Stat[i])
							}
							if !same(res.RawP[i], want.RawP[i]) {
								t.Fatalf("side=%s np=%s %s row %d: rawp %v != %v", side, nonpara, how, i, res.RawP[i], want.RawP[i])
							}
							if !same(res.AdjP[i], want.AdjP[i]) {
								t.Fatalf("side=%s np=%s %s row %d: adjp %v != %v", side, nonpara, how, i, res.AdjP[i], want.AdjP[i])
							}
						}
					}
					for _, nprocs := range []int{1, 2, 3} {
						par, err := core.PMaxTMatrix(m, d.labels, nprocs, opt)
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("collective nprocs=%d", nprocs), par)
						for _, every := range []int64{0, 1, 7, 33, 64, 100} {
							spec := Spec{X: x, Labels: d.labels, Opt: opt, NProcs: nprocs, Every: every}
							key, _, err := spec.contentKey()
							if err != nil {
								t.Fatal(err)
							}
							if key != wantKey {
								t.Fatalf("side=%s np=%s nprocs=%d every=%d: content key %s != %s", side, nonpara, nprocs, every, key, wantKey)
							}
							res, err := core.RunPrepared(prepared, opt, core.RunControl{
								NProcs: nprocs, Every: every,
								Save: func(c *core.Checkpoint) error {
									if c.Fingerprint != fp {
										t.Errorf("side=%s np=%s nprocs=%d every=%d: checkpoint fingerprint %x, plan %x", side, nonpara, nprocs, every, c.Fingerprint, fp)
									}
									return nil
								},
							})
							if err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("nprocs=%d every=%d", nprocs, every), res)
						}
					}
				}
			}
		})
	}
}
