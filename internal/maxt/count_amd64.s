// The step-down counter's AVX2 lane: tallyRow, four labellings per step.
//
// Each 64-bit lane performs tally's scalar operations on one labelling:
// the side transform as XOR/AND on the bit pattern, NaN → −Inf as an
// unordered compare and a blend, VMAXPD t,u — which is exactly
// t > u ? t : u, second operand on equal zeros — and two ordered ≥
// compares whose all-ones masks are subtracted from integer accumulators.
// Lane-wise compares are the scalar ones and integer adds commute, so the
// counts equal tallyRow's on every bit pattern (FuzzCountRow).
//
// Every vector instruction up to VZEROUPPER is VEX-encoded.  One legacy-SSE
// instruction among them (a MOVQ into an X register, say) makes the CPU
// save and restore the upper YMM halves around it, which costs more than
// the whole row.

#include "textflag.h"

DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8

// func countRowAVX2(z, u []float64, o float64, flip, keep uint64) (r, a int64)
TEXT ·countRowAVX2(SB), NOSPLIT, $0-88
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	MOVQ u_base+24(FP), DI
	VBROADCASTSD o+48(FP), Y8
	VBROADCASTSD flip+56(FP), Y9
	VBROADCASTSD keep+64(FP), Y10
	VBROADCASTSD neginf<>(SB), Y11
	VPXOR Y0, Y0, Y0 // raw exceedances, one count per lane
	VPXOR Y1, Y1, Y1 // adjusted exceedances
	XORQ  AX, AX

loop:
	VMOVUPD   (SI)(AX*8), Y2
	VXORPD    Y9, Y2, Y2
	VANDPD    Y10, Y2, Y2      // t = side transform of z
	VCMPPD    $3, Y2, Y2, Y3   // t unordered with itself: NaN
	VBLENDVPD Y3, Y11, Y2, Y2  // t = NaN ? -Inf : t
	VMOVUPD   (DI)(AX*8), Y4
	VMAXPD    Y4, Y2, Y4       // u = t > u ? t : u
	VMOVUPD   Y4, (DI)(AX*8)
	VCMPPD    $0x1D, Y8, Y2, Y5 // t >= o, ordered
	VCMPPD    $0x1D, Y8, Y4, Y6 // u >= o
	VPSUBQ    Y5, Y0, Y0        // mask is -1 where true
	VPSUBQ    Y6, Y1, Y1
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

	VEXTRACTI128 $1, Y0, X2
	VPADDQ       X2, X0, X0
	VPSRLDQ      $8, X0, X2
	VPADDQ       X2, X0, X0
	VMOVQ        X0, r+72(FP)
	VEXTRACTI128 $1, Y1, X3
	VPADDQ       X3, X1, X1
	VPSRLDQ      $8, X1, X3
	VPADDQ       X3, X1, X1
	VMOVQ        X1, a+80(FP)
	VZEROUPPER
	RET
