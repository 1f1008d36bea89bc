//go:build amd64

package maxt

// countBlockAVX2 is tallyBlock four labellings to a register and up to
// 32 to a strip (count_amd64.s): len(u), a positive multiple of 4, is the
// number it folds.  Callers must have verified AVX2 support (stat.ISAAVX2
// active implies it).
//
//go:noescape
func countBlockAVX2(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64)

// countBlockAVX512 is tallyBlock eight labellings to a register and up to
// 64 to a strip (count_amd64.s), a ragged strip's last register under a
// lane mask, so it folds any len(u).  Callers must have verified AVX-512
// support (stat.ISAAVX512).
//
//go:noescape
func countBlockAVX512(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64)
