//go:build !amd64

package maxt

// countRowAVX2 is never selected off amd64 (the active ISA is generic
// there); the binding satisfies the shared call site in countBlock.
func countRowAVX2(z, u []float64, o float64, flip, keep uint64) (r, a int64) {
	return tallyRow(z, u, o, flip, keep)
}
