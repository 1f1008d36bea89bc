//go:build !amd64

package maxt

// Off amd64 the active ISA is generic, so countLane never selects these;
// the bindings satisfy the shared call sites in countBlock.

func countBlockAVX2(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64) {
	panic("maxt: the AVX2 counting lane was selected off amd64")
}

func countBlockAVX512(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64) {
	panic("maxt: the AVX-512 counting lane was selected off amd64")
}
