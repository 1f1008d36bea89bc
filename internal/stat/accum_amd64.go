//go:build amd64

package stat

// tsQuad evaluates one NA-free row quad under groups·4 labellings — the
// AVX2 routine in accum_avx2_amd64.s: accumulation, tsTail.stat and the
// store, lanes = rows.  v8 is the quad by column (v8[8j+r] = x, the other
// half of each 64-byte line unread), sel8 the labellings' lists of 8·j, L
// entries each and back to back, qc the table BatchScratch.openQuad fills
// with the quad's row totals behind it, sign one entry per labelling;
// labelling p's statistic of row r goes to out[p*ps+r*rs].  Every result
// is bit for bit what tsTail.stat returns on the scalar chain's sums
// (TestStatsBatchISASweep, FuzzTSQuad).  Callers must have verified AVX2
// support (ISAAVX2 and above imply it).
//
//go:noescape
func tsQuad(v8 *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, out *float64, ps, rs int)

// tsOct is tsQuad for a row octet, v8[8j+r] for r < 8 — the AVX-512
// routine in accum_avx512_amd64.s (FuzzTSOct) — and only for ps == 1 or
// rs == 1.  Callers must have verified AVX-512 support (ISAAVX512).
//
//go:noescape
func tsOct(v8 *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, out *float64, ps, rs int)

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
func wilxQuad(q, dq *int32, L, groups int, qc *[48]float64, qs *[8]int32, neg bool, out *float64, ps, rs int)

// cpuidex executes CPUID with the given leaf and subleaf
// (cpuid_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0, reporting which vector
// register states the OS saves across context switches (cpuid_amd64.s).
// Only valid when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// bestISA probes the CPU once at init: AVX2 requires the instruction set
// itself (CPUID.7.0:EBX bit 5) AND OS support for saving YMM state
// (OSXSAVE + XCR0 bits 1 and 2) — the standard detection sequence; AVX-512
// adds AVX512F (CPUID.7.0:EBX bit 16) and the opmask and ZMM states (XCR0
// bits 5–7).  Without AVX2 the portable Go kernel runs.
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
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return ISAGeneric
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	if ebx7&(1<<5) == 0 { // AVX2
		return ISAGeneric
	}
	if ebx7&(1<<16) == 0 || xcr0&0xe6 != 0xe6 { // AVX512F; opmask, ZMM0–15 upper halves, ZMM16–31
		return ISAAVX2
	}
	return ISAAVX512
}
