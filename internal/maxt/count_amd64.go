//go:build amd64

package maxt

// countRowAVX2 is tallyRow four labellings to a step (count_amd64.s);
// len(z), a positive multiple of 4, is the number it folds, and u is at
// least as long.  Callers must have verified AVX2 support (stat.ISAAVX2
// active implies it).
//
//go:noescape
func countRowAVX2(z, u []float64, o float64, flip, keep uint64) (r, a int64)
