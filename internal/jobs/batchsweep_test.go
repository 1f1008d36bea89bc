package jobs

import (
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

// TestBatchSizeInvariance is the batching refactor's end-to-end property
// sweep: for every test × side × nonpara setting on random NA-bearing,
// unbalanced, tied designs, runs at every BatchSize must produce bitwise
// equal statistics and p-values (hence identical exceedance counts),
// identical jobs cache keys, and identical checkpoint fingerprints.
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
	batchSizes := []int{0, 1, 2, 7, 64, 128}
	for _, d := range designs {
		d := d
		t.Run(d.name, func(t *testing.T) {
			m := sweepMatrix(13, len(d.labels), 0xabc^uint64(len(d.labels)))
			for _, side := range []string{"abs", "upper", "lower"} {
				for _, nonpara := range []string{"n", "y"} {
					base := core.Options{
						Test: d.test, Side: side, Nonpara: nonpara,
						B: 101, Seed: 23, BatchSize: 1,
					}
					var wantRes *core.Result
					var wantKey string
					var wantFP uint64
					for _, bs := range batchSizes {
						opt := base
						opt.BatchSize = bs

						key, err := KeyMatrix(m, d.labels, opt)
						if err != nil {
							t.Fatal(err)
						}
						// The fingerprint comes from the plan, not from a saved
						// checkpoint: a run that fits one window (36 complete
						// permutations at batch 64) saves none.  Checkpoints
						// that are saved must carry it.
						prepared, err := core.Prepare(m, d.labels, opt)
						if err != nil {
							t.Fatal(err)
						}
						plan, err := core.PlanRun(prepared, opt)
						if err != nil {
							t.Fatal(err)
						}
						fp := plan.Fingerprint
						res, err := core.RunPrepared(prepared, opt, core.RunControl{
							NProcs: 2, Every: 33,
							Save: func(c *core.Checkpoint) error {
								if c.Fingerprint != fp {
									t.Errorf("side=%s np=%s bs=%d: checkpoint fingerprint %x, plan %x", side, nonpara, bs, c.Fingerprint, fp)
								}
								return nil
							},
						})
						if err != nil {
							t.Fatal(err)
						}
						if wantRes == nil {
							wantRes, wantKey, wantFP = res, key, fp
							continue
						}
						if key != wantKey {
							t.Fatalf("side=%s np=%s bs=%d: cache key %s != %s", side, nonpara, bs, key, wantKey)
						}
						if fp != wantFP {
							t.Fatalf("side=%s np=%s bs=%d: checkpoint fingerprint %x != %x", side, nonpara, bs, fp, wantFP)
						}
						for i := range wantRes.Stat {
							if math.Float64bits(res.Stat[i]) != math.Float64bits(wantRes.Stat[i]) &&
								!(math.IsNaN(res.Stat[i]) && math.IsNaN(wantRes.Stat[i])) {
								t.Fatalf("side=%s np=%s bs=%d row %d: stat %v != %v", side, nonpara, bs, i, res.Stat[i], wantRes.Stat[i])
							}
							if math.Float64bits(res.RawP[i]) != math.Float64bits(wantRes.RawP[i]) &&
								!(math.IsNaN(res.RawP[i]) && math.IsNaN(wantRes.RawP[i])) {
								t.Fatalf("side=%s np=%s bs=%d row %d: rawp %v != %v", side, nonpara, bs, i, res.RawP[i], wantRes.RawP[i])
							}
							if math.Float64bits(res.AdjP[i]) != math.Float64bits(wantRes.AdjP[i]) &&
								!(math.IsNaN(res.AdjP[i]) && math.IsNaN(wantRes.AdjP[i])) {
								t.Fatalf("side=%s np=%s bs=%d row %d: adjp %v != %v", side, nonpara, bs, i, res.AdjP[i], wantRes.AdjP[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchSizeCacheHit: two submissions differing only in BatchSize must
// share one content key, so the second is answered from the result cache.
func TestBatchSizeCacheHit(t *testing.T) {
	mgr, err := NewManager(Config{Workers: 1, DefaultNProcs: 1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	x := [][]float64{{1, 2, 3, 4, 5, 6, 0.5}, {6, 5, 4, 3, 2, 1, 2.5}, {2, 4, 1, 5, 3, 6, 1.5}}
	labels := []int{0, 0, 0, 1, 1, 1, 1}
	first := Spec{X: x, Labels: labels, Opt: core.Options{B: 50, BatchSize: 16}}
	st, err := mgr.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, st.ID)
	second := Spec{X: x, Labels: labels, Opt: core.Options{B: 50, BatchSize: 1}}
	st2, err := mgr.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Errorf("submission differing only in BatchSize missed the cache (keys %s vs %s)", st.Key, st2.Key)
	}
}
