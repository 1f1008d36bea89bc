//go:build !amd64

package stat

// Portable fallbacks: on non-amd64 the dispatch never selects an assembly
// ISA (bestISA reports generic), so these bindings exist only to satisfy
// the shared call sites in batch.go.  The pure-Go kernels in accum_go.go
// are the reference semantics every implementation is pinned to.

func accumPair(vab *float64, i0 *int32, i1 *int32, n int, acc *[8]float64) {
	accumPairGo(vab, i0, i1, n, acc)
}

func tsQuad(v8 *float64, sel8 *int32, L, groups int, qc *[40]float64, sign, out *float64, ps, rs int) {
	panic("stat: the AVX2 lane was selected off amd64")
}

// bestISA reports the only ISA available off amd64: the portable Go kernel.
func bestISA() KernelISA { return ISAGeneric }
