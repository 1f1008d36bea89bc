//go:build amd64

package stat

// tsQuad evaluates one NA-free row quad under groups·4 labellings — the
// AVX2 routine in accum_avx2_amd64.s: accumulation, tsTail.stat and the
// store, lanes = rows.  v8 is the quad with its squares (v8[8j+r] = x,
// v8[8j+4+r] = x·x), sel8 the labellings' lists of 8·j, L entries each and
// back to back, qc the table BatchScratch.openQuad fills with the quad's
// row totals behind it, sign one entry per labelling; labelling p's
// statistic of row r goes to out[p*ps+r*rs].  Every result is bit for bit
// what tsTail.stat returns on the scalar chain's sums (TestStatsBatchISASweep,
// FuzzTSQuad).  Callers must have verified AVX2 support (ISAAVX2 implies it).
//
//go:noescape
func tsQuad(v8 *float64, sel8 *int32, L, groups int, qc *[40]float64, sign, out *float64, ps, rs int)

// wilxQuad evaluates one row quad of the Wilcoxon delta lane under the
// first 4·groups labellings of an open chain — the AVX2 routine in
// accum_avx2_amd64.s, lanes = rows.  q is the quad (intRank.quad), dq the
// L start offsets then one (In, Out) offset pair per labelling
// (BatchScratch.dq), qc the constants 0.5, mu1, sd, total four wide, qs
// the running sums (out) then the row totals sum2; neg selects the tail of
// a kernel accumulating class 0.  Labelling p's statistic of row r goes to
// out[p*ps+r*rs], bit for bit what fullLane writes (TestDeltaRowsISASweep,
// FuzzWilxQuad).  Callers must have verified AVX2 support and that every
// sum stays within int32 (quadLane).
//
//go:noescape
func wilxQuad(q, dq *int32, L, groups int, qc *[40]float64, qs *[8]int32, neg bool, out *float64, ps, rs int)

// cpuidex executes CPUID with the given leaf and subleaf
// (cpuid_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0, reporting which vector
// register states the OS saves across context switches (cpuid_amd64.s).
// Only valid when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// bestISA probes the CPU once at init: AVX2 requires the instruction set
// itself (CPUID.7.0:EBX bit 5) AND OS support for saving YMM state
// (OSXSAVE + XCR0 bits 1 and 2) — the standard detection sequence.
// Without it the portable Go kernel runs.
func bestISA() KernelISA {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return ISAGeneric
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return ISAGeneric
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM and YMM state enabled
		return ISAGeneric
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	if ebx7&(1<<5) == 0 { // AVX2
		return ISAGeneric
	}
	return ISAAVX2
}
