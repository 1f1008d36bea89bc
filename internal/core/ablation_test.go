package core

import (
	"fmt"
	"testing"
)

// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//   - string-parameter broadcast (the paper's Step 2 wire protocol) versus
//     scalar codes (future-work item 3);
//   - the on-the-fly generator versus storing permutations in memory
//     (fixed.seed.sampling = "y" vs "n");
//   - the step-down kernel across process counts on a fixed workload.
//
// Run with: go test -bench=Ablation ./internal/core -benchmem

func ablationWorkload() ([][]float64, []int) {
	return synthMatrix(120, 76, 6, 99), twoClass(38, 38)
}

// BenchmarkAblationBroadcastProtocol isolates Step 2: parameter validation
// plus broadcast with a minimal kernel, so the protocol cost difference is
// visible rather than drowned by permutations.
func BenchmarkAblationBroadcastProtocol(b *testing.B) {
	x, lab := ablationWorkload()
	for _, scalar := range []bool{false, true} {
		name := "strings"
		if scalar {
			name = "scalars"
		}
		b.Run(name, func(b *testing.B) {
			opt := Options{B: 2, Seed: 1, ScalarParams: scalar}
			for i := 0; i < b.N; i++ {
				if _, err := collective(x, lab, 8, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGenerator compares the two sampling modes end to end.
// The stored generator pays materialisation (draw-and-discard forwarding
// plus memory) where the on-the-fly generator pays per-permutation stream
// setup; the paper keeps "y" as the default.
func BenchmarkAblationGenerator(b *testing.B) {
	x, lab := ablationWorkload()
	for _, fss := range []string{"y", "n"} {
		name := "on-the-fly"
		if fss == "n" {
			name = "stored"
		}
		b.Run(name, func(b *testing.B) {
			opt := Options{B: 500, Seed: 1, FixedSeedSampling: fss}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := serialRun(x, lab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProcessCount sweeps goroutine ranks on a fixed
// workload: the in-repo analogue of one column of the paper's speedup
// tables.
func BenchmarkAblationProcessCount(b *testing.B) {
	x, lab := ablationWorkload()
	for _, np := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", np), func(b *testing.B) {
			opt := Options{B: 1000, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := collective(x, lab, np, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckpointOverhead quantifies future-work item 1: the
// cost of periodic checkpointing relative to an uninterrupted run.
func BenchmarkAblationCheckpointOverhead(b *testing.B) {
	x, lab := ablationWorkload()
	opt := Options{B: 500, Seed: 1}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := serialRun(x, lab, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, every := range []int64{50, 250} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunMatrix(mat(x), lab, opt, RunControl{NProcs: 1, Every: every,
					Save: func(c *Checkpoint) error { return nil }}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
