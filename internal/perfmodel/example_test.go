package perfmodel_test

import (
	"fmt"

	"sprint/internal/perfmodel"
)

// Example is the platform advisor, the paper's core question as a tool:
// "the speed-up in results across the benchmark systems offers a route for
// life scientists to scale up their analyses based on the infrastructure
// available to them" (Section 5).  For an exon-array sized analysis — 36612
// genes (Table VI) and a million permutations — the calibrated models
// predict the wall time on each platform, and the parallel efficiency
// shows where adding processes stops paying.  The models are pure, so the
// table is deterministic.
func Example() {
	const genes, samples, perms = 36612, 76, 1_000_000
	fmt.Printf("%-17s %5s %10s %9s %6s\n", "platform", "procs", "elapsed", "speedup", "eff")
	for _, pl := range perfmodel.All() {
		t1 := pl.PredictWorkload(genes, samples, perms, 1).Total()
		for _, p := range pl.ProcCounts() {
			total := pl.PredictWorkload(genes, samples, perms, p).Total()
			speedup := t1 / total
			fmt.Printf("%-17s %5d %10s %8.1fx %5.0f%%\n", pl.Name, p, duration(total), speedup, 100*speedup/float64(p))
		}
	}

	// Output:
	// platform          procs    elapsed   speedup    eff
	// HECToR                1      9.4 h      1.0x   100%
	// HECToR                2      4.8 h      2.0x    98%
	// HECToR                4      2.4 h      3.9x    97%
	// HECToR                8      1.2 h      7.7x    96%
	// HECToR               16   36.8 min     15.3x    96%
	// HECToR               32   18.5 min     30.5x    95%
	// HECToR               64    9.3 min     60.8x    95%
	// HECToR              128    4.7 min    120.7x    94%
	// HECToR              256    2.4 min    237.9x    93%
	// HECToR              512    1.2 min    462.5x    90%
	// ECDF                  1      5.2 h      1.0x   100%
	// ECDF                  2      2.7 h      2.0x    98%
	// ECDF                  4      1.3 h      3.9x    96%
	// ECDF                  8   53.6 min      5.8x    73%
	// ECDF                 16   26.9 min     11.6x    72%
	// ECDF                 32   13.5 min     23.0x    72%
	// ECDF                 64    6.8 min     45.5x    71%
	// ECDF                128    3.5 min     89.3x    70%
	// Amazon EC2            1      6.0 h      1.0x   100%
	// Amazon EC2            2      3.5 h      1.7x    87%
	// Amazon EC2            4      2.1 h      2.8x    70%
	// Amazon EC2            8      1.1 h      5.6x    69%
	// Amazon EC2           16   32.6 min     11.0x    69%
	// Amazon EC2           32   16.6 min     21.6x    68%
	// Ness                  1      9.5 h      1.0x   100%
	// Ness                  2      4.8 h      2.0x    99%
	// Ness                  4      2.4 h      3.9x    98%
	// Ness                  8      1.3 h      7.3x    91%
	// Ness                 16   55.9 min     10.2x    64%
	// Quad-core desktop     1      6.3 h      1.0x   100%
	// Quad-core desktop     2      3.1 h      2.0x   100%
	// Quad-core desktop     4      1.9 h      3.4x    85%
}

func duration(seconds float64) string {
	switch {
	case seconds >= 3600:
		return fmt.Sprintf("%.1f h", seconds/3600)
	case seconds >= 60:
		return fmt.Sprintf("%.1f min", seconds/60)
	default:
		return fmt.Sprintf("%.1f s", seconds)
	}
}
