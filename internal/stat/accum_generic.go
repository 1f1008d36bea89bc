//go:build !amd64

package stat

// Portable fallbacks: on non-amd64 the dispatch never selects an assembly
// ISA (bestISA reports generic), so these bindings exist only to satisfy
// the shared call sites in batch.go and delta.go.

func tsQuad(oct *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, acc, out *float64, ps, rs int) {
	panic("stat: the AVX2 lane was selected off amd64")
}

func tsOct(oct *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, acc, out *float64, ps, rs int, next *float64, pf int) {
	panic("stat: the AVX-512 lane was selected off amd64")
}

func wilxQuad(q, dq *int32, L, groups int, qc *[48]float64, qs *[8]int32, neg bool, out *float64, ps, rs int) {
	panic("stat: the AVX2 lane was selected off amd64")
}

// bestISA reports the only ISA available off amd64: the portable Go kernel.
func bestISA() KernelISA { return ISAGeneric }
