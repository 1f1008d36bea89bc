package maxt

import (
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// batchDesigns covers every permutation action with NA-bearing, unbalanced
// and tied data.
func batchDesigns(t *testing.T) []struct {
	name   string
	test   stat.Test
	labels []int
} {
	t.Helper()
	return []struct {
		name   string
		test   stat.Test
		labels []int
	}{
		{"t-balanced", stat.Welch, []int{0, 1, 0, 1, 1, 0, 1, 0}},
		{"t-unbalanced", stat.Welch, []int{0, 0, 1, 1, 1, 1, 1, 1, 1}},
		{"t.equalvar", stat.TEqualVar, []int{0, 0, 0, 1, 1, 1, 1, 1}},
		{"wilcoxon", stat.Wilcoxon, []int{0, 0, 0, 0, 1, 1, 1, 1, 1}},
		{"f", stat.F, []int{0, 0, 0, 1, 1, 1, 2, 2, 2}},
		{"pairt", stat.PairT, []int{0, 1, 1, 0, 0, 1, 1, 0}},
		{"blockf", stat.BlockF, []int{0, 1, 2, 2, 0, 1, 1, 2, 0}},
	}
}

// batchMatrix builds a quantized (tie-bearing), NA-bearing test matrix.
func batchMatrix(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s
	}
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float64(next()%40)/4 - 5 // coarse grid: ties abound
		}
		if i%4 == 1 {
			row[int(next()%uint64(cols))] = math.NaN()
		}
	}
	return m
}

// TestProcessBatchedCountsEqualProcess: for every test, side, nonpara
// setting, generator kind and batch size, ProcessBatched must accumulate
// EXACTLY the counts of batches of one — the invariant that keeps
// p-values, cache entries and checkpoints valid under batching.
func TestProcessBatchedCountsEqualProcess(t *testing.T) {
	for _, tc := range batchDesigns(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := stat.NewDesign(tc.test, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			m := batchMatrix(17, d.N, 0xbeef^uint64(tc.test))
			for _, side := range []Side{Abs, Upper, Lower} {
				for _, nonpara := range []bool{false, true} {
					p, err := NewPrepMatrix(m, d, side, nonpara)
					if err != nil {
						t.Fatal(err)
					}
					const B = 97 // prime: every batch size leaves a ragged tail
					gens := map[string]perm.Generator{
						"random": perm.NewRandom(d, 5, B),
						"stored": perm.NewStored(d, 5, B, 0, B),
					}
					if c, err := perm.NewComplete(d); err == nil && c.Total() <= 4096 {
						gens["complete"] = c
					}
					for gname, gen := range gens {
						total := min64(B, gen.Total())
						want := NewCounts(p.Rows())
						ProcessFrom(p, gen, 0, total, want, nil, 1, 0)
						for _, batch := range []int{1, 2, 3, 7, 16, 64, 128} {
							got := NewCounts(p.Rows())
							ProcessBatched(p, gen, 0, total, got, nil, batch)
							if got.B != want.B {
								t.Fatalf("%s side=%v np=%v batch=%d: B=%d want %d", gname, side, nonpara, batch, got.B, want.B)
							}
							for i := range want.Raw {
								if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
									t.Fatalf("%s side=%v np=%v batch=%d row %d: counts (%d,%d) != (%d,%d)",
										gname, side, nonpara, batch, i, got.Raw[i], got.Adj[i], want.Raw[i], want.Adj[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestProcessBatchedScratchReuse: one worker-owned scratch reused across
// preps of different shapes and tests must not change counts, and the
// steady-state loop must not allocate.
func TestProcessBatchedScratchReuse(t *testing.T) {
	var s *Scratch
	for _, tc := range batchDesigns(t) {
		d, err := stat.NewDesign(tc.test, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		m := batchMatrix(9, d.N, 31*uint64(tc.test))
		p, err := NewPrepMatrix(m, d, Abs, false)
		if err != nil {
			t.Fatal(err)
		}
		s = p.ScratchFrom(s) // reuse across iterations
		gen := perm.NewRandom(d, 3, 60)
		got := NewCounts(p.Rows())
		ProcessBatched(p, gen, 0, 60, got, s, 16)
		want := NewCounts(p.Rows())
		ProcessFrom(p, gen, 0, 60, want, nil, 1, 0)
		for i := range want.Raw {
			if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
				t.Fatalf("%s: reused scratch drifts at row %d", tc.name, i)
			}
		}
	}
}

// TestProcessBatchedZeroAllocs: with a warmed scratch and the on-the-fly
// generator, the batched main loop must not allocate per call.
func TestProcessBatchedZeroAllocs(t *testing.T) {
	d, err := stat.NewDesign(stat.Welch, []int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := batchMatrix(32, d.N, 77)
	p, err := NewPrepMatrix(m, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	gen := perm.NewRandom(d, 9, 1<<20)
	s := p.NewScratch()
	c := NewCounts(p.Rows())
	ProcessBatched(p, gen, 0, 64, c, s, 32) // warm the batch buffers
	allocs := testing.AllocsPerRun(10, func() {
		ProcessBatched(p, gen, 64, 128, c, s, 32)
	})
	if allocs != 0 {
		t.Errorf("ProcessBatched allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestCountsReset: Reset must zero counts while reusing capacity.
func TestCountsReset(t *testing.T) {
	c := NewCounts(8)
	for i := range c.Raw {
		c.Raw[i], c.Adj[i] = int64(i), int64(2*i)
	}
	c.B = 42
	buf := &c.Raw[0]
	c.Reset(8)
	if c.B != 0 {
		t.Errorf("B = %d after Reset", c.B)
	}
	for i := range c.Raw {
		if c.Raw[i] != 0 || c.Adj[i] != 0 {
			t.Fatalf("counts not zeroed at %d", i)
		}
	}
	if buf != &c.Raw[0] {
		t.Error("Reset reallocated despite sufficient capacity")
	}
	c.Reset(16)
	if len(c.Raw) != 16 || len(c.Adj) != 16 {
		t.Errorf("Reset(16) sized %d/%d", len(c.Raw), len(c.Adj))
	}
}
