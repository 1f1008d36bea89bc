package maxt

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// deltaMatrix builds a small matrix with ties and optional NA holes.
func deltaMatrix(rows, cols int, withNA bool, seed int64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	next := func() int64 { s = s*6364136223846793005 + 1442695040888963407; return (s >> 33) & 0x7fffffff }
	for o := range m.Data {
		m.Data[o] = float64(next() % 9)
		if withNA && next()%13 == 0 {
			m.Data[o] = math.NaN()
		}
	}
	return m
}

// TestRevolvingDoorEndToEnd is the set-equality property at the counting
// layer: a complete enumeration processed in revolving-door order (the
// delta path) accumulates EXACTLY the counts and adjusted p-values of the
// combinadic order (the PR 3 batch path), for every two-sample test, side,
// nonpara setting, NA pattern and batch size — including batch sizes that
// leave ragged tails and scalar fallbacks.
func TestRevolvingDoorEndToEnd(t *testing.T) {
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1, 1}
	for _, test := range []stat.Test{stat.Welch, stat.TEqualVar, stat.Wilcoxon} {
		for _, side := range []Side{Abs, Upper, Lower} {
			for _, nonpara := range []bool{true, false} {
				if test == stat.Wilcoxon && !nonpara {
					// Wilcoxon is rank-based regardless; one pass suffices.
					continue
				}
				for _, withNA := range []bool{false, true} {
					name := fmt.Sprintf("%v/%v/nonpara=%v/na=%v", test, side, nonpara, withNA)
					t.Run(name, func(t *testing.T) {
						d, err := stat.NewDesign(test, labels)
						if err != nil {
							t.Fatal(err)
						}
						m := deltaMatrix(25, d.N, withNA, int64(test)*31+int64(side)*7+5)
						prep, err := NewPrepMatrix(m, d, side, nonpara)
						if err != nil {
							t.Fatal(err)
						}
						comp, err := perm.NewComplete(d)
						if err != nil {
							t.Fatal(err)
						}
						door, err := perm.NewRevolvingDoor(d)
						if err != nil {
							t.Fatal(err)
						}
						// The delta machinery must actually engage on rank
						// data: without this assertion the test could pass
						// with the fast path silently dead.  (The two-sample
						// t kernels keep the batch path at small group
						// sizes — profitability gate — so only Wilcoxon is
						// asserted to dispatch through StatsDelta here.)
						if test == stat.Wilcoxon {
							dk, ok := prep.Kernel.(stat.DeltaKernel)
							if !ok || !dk.DeltaOK() {
								t.Fatal("delta kernel not available on rank data")
							}
						}
						total := comp.Total()
						want := NewCounts(prep.Rows())
						ProcessBatched(prep, comp, 0, total, want, nil, 16)
						for _, batch := range []int{1, 5, 16, int(total)} {
							got := NewCounts(prep.Rows())
							ProcessBatched(prep, door, 0, total, got, nil, batch)
							if got.B != want.B {
								t.Fatalf("batch %d: B = %d, want %d", batch, got.B, want.B)
							}
							for i := range want.Raw {
								if got.Raw[i] != want.Raw[i] || got.Adj[i] != want.Adj[i] {
									t.Fatalf("batch %d row %d: counts (%d,%d), want (%d,%d)",
										batch, i, got.Raw[i], got.Adj[i], want.Raw[i], want.Adj[i])
								}
							}
							rd := Finalize(prep, got)
							rc := Finalize(prep, want)
							for i := range rc.AdjP {
								if math.Float64bits(rd.AdjP[i]) != math.Float64bits(rc.AdjP[i]) ||
									math.Float64bits(rd.RawP[i]) != math.Float64bits(rc.RawP[i]) {
									t.Fatalf("batch %d row %d: p-values differ", batch, i)
								}
							}
						}
						// Chunked door processing merges to the same counts
						// (rank-aligned unranking at arbitrary offsets).
						merged := NewCounts(prep.Rows())
						bounds := []int64{0, total / 3, 2*total/3 + 1, total}
						for c := 0; c+1 < len(bounds); c++ {
							part := NewCounts(prep.Rows())
							ProcessBatched(prep, door, bounds[c], bounds[c+1], part, nil, 4)
							merged.Merge(part)
						}
						for i := range want.Raw {
							if merged.Raw[i] != want.Raw[i] || merged.Adj[i] != want.Adj[i] {
								t.Fatalf("chunked row %d: counts (%d,%d), want (%d,%d)",
									i, merged.Raw[i], merged.Adj[i], want.Raw[i], want.Adj[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestDeltaLoopZeroAllocs asserts the steady-state delta loop — generator
// unranking, move derivation, kernel update and counting — allocates
// nothing once scratch is warm.
func TestDeltaLoopZeroAllocs(t *testing.T) {
	d, err := stat.NewDesign(stat.Wilcoxon, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := deltaMatrix(60, d.N, false, 9)
	prep, err := NewPrepMatrix(m, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	door, err := perm.NewRevolvingDoor(d)
	if err != nil {
		t.Fatal(err)
	}
	if dk, ok := prep.Kernel.(stat.DeltaKernel); !ok || !dk.DeltaOK() {
		t.Fatal("delta path not engaged")
	}
	scratch := prep.NewScratch()
	c := NewCounts(prep.Rows())
	const batch = 32
	// Warm every grow-on-demand buffer.
	ProcessBatched(prep, door, 0, 2*batch, c, scratch, batch)
	allocs := testing.AllocsPerRun(10, func() {
		ProcessBatched(prep, door, 0, 2*batch, c, scratch, batch)
	})
	// Under the race detector sync.Pool drops a quarter of what is put back,
	// on purpose, so perm.RevolvingDoor's pooled unranking scratch is
	// allocated again on some runs — found with a rate-1 memory profile of
	// the race build: every object under LabelsDelta → sync.(*Pool).Get.
	// That allocation is the detector's, so the assertion holds without it.
	if allocs != 0 && !raceEnabled {
		t.Fatalf("delta loop allocates %v per run in steady state, want 0", allocs)
	}
}
