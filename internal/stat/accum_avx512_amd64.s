// The AVX-512 lane, lanes = rows: tsOct, the two-sample t fast path for one
// aligned NA-free row octet under every group of four labellings — tsQuad
// (accum_avx2_amd64.s) eight rows wide, in two passes.
//
// The octet is the kernel's own (rowGroups): a column's eight values are one
// 64-byte line (x at 8j+r), and the lists hold 8·j, so one element of one
// labelling is one zmm load straight from the prep's rows, s += x, then x·x
// and q += x·x: VMULPD then VADDPD, the rounded product the scalar chain
// adds, never an FMA.  Four labellings run eight chains at once (Z0…Z7 =
// s0 q0 s1 q1 s2 q2 s3 q3); within a chain the adds come in ascending
// selected-column order, as in Stats.
//
// Sums before tails.  The first pass accumulates every group and stores its
// eight chains to acc (512 bytes a group); the second runs TAIL8 and the
// stores over all groups.  A group's square root and division then no
// longer hold the next group's sums behind them, and each labelling's
// operations are the ones a single pass would make, so the bits are too.
// During the first pass each group prefetches pf lines of the next octet
// (PREFETCHT0 touches no vector state), spreading the octet's columns over
// the groups; pf = 0 prefetches nothing.
//
// TAIL8 is tsQuad's TAIL on zmm registers, operation for operation, with
// the constants as broadcast memory operands and the two selections on K
// masks: the clamp m2 < (q·f)·m2Tol → +0 is a compare for "not less"
// (unordered included, so a NaN m2 is kept as the ordered compare and the
// and-not keep it) and a zeroing move; den == 0 → the bits of math.NaN()
// is an ordered compare for equality and a merging broadcast.  Each is the
// IEEE-754 operation the compiled Go performs on the same operands, so a
// lane's result is Stats' on every bit (TestStatsBatchISASweep, FuzzTSOct).
//
// Beyond AVX2, only AVX512F instructions are used (bestISA checks no other
// subset).  The store takes ps == 1 or rs == 1 — StatsRows sends other
// strides to tsQuad.

#include "textflag.h"
#include "lanes_amd64.h"

// TAIL8 turns one labelling's sums S and sums of squares Q into its eight
// statistics, left in S.  SG is the labelling's sign; Z15 is zero; Z8–Z13
// and K1 are scratch: Z8 = sb, Z9 = qb, Z11 = m2a then den, Z13 = m2b,
// Z12 the numerator.
#define TAIL8(S, Q, SG) \
	VMOVUPD      SROW, Z8            \
	VSUBPD       S, Z8, Z8           \
	VMOVUPD      QROW, Z9            \
	VSUBPD       Q, Z9, Z9           \
	VMULPD.BCST  FA, Q, Z10          \
	VMULPD       S, S, Z11           \
	VSUBPD       Z11, Z10, Z11       \
	VMULPD.BCST  TOL, Z10, Z10       \
	VCMPPD       $0x15, Z10, Z11, K1 \
	VMOVAPD.Z    Z11, K1, Z11        \
	VMULPD.BCST  FB, Z9, Z12         \
	VMULPD       Z8, Z8, Z13         \
	VSUBPD       Z13, Z12, Z13       \
	VMULPD.BCST  TOL, Z12, Z12       \
	VCMPPD       $0x15, Z12, Z13, K1 \
	VMOVAPD.Z    Z13, K1, Z13        \
	VMULPD.BCST  DB, Z11, Z11        \
	VMULPD.BCST  DA, Z13, Z13        \
	VADDPD       Z13, Z11, Z11       \
	VMULPD.BCST  SCALE, Z11, Z11     \
	VMULPD.BCST  FB, S, Z12          \
	VMULPD.BCST  FA, Z8, Z8          \
	VSUBPD       Z8, Z12, Z12        \
	VMULPD.BCST  SG, Z12, Z12        \
	VMULPD.BCST  RT, Z12, Z12        \
	VSQRTPD      Z11, Z13            \
	VDIVPD       Z13, Z12, S         \
	VCMPPD       $0, Z15, Z11, K1    \
	VBROADCASTSD NANV, K1, S

// ACCUM adds one element of two labellings to their chains: A and B are
// the elements' 8·j, S1 Q1 and S2 Q2 the chains, X1 and X2 scratch.
#define ACCUM(A, B, S1, Q1, S2, Q2, X1, X2) \
	VMOVUPD (SI)(A*8), X1 \
	VMOVUPD (SI)(B*8), X2 \
	VADDPD  X1, S1, S1    \
	VMULPD  X1, X1, X1    \
	VADDPD  X1, Q1, Q1    \
	VADDPD  X2, S2, S2    \
	VMULPD  X2, X2, X2    \
	VADDPD  X2, Q2, Q2

// func tsOct(oct *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, acc, out *float64, ps, rs int, next *float64, pf int)
TEXT ·tsOct(SB), NOSPLIT, $0-96
	MOVQ oct+0(FP), SI
	MOVQ sel8+8(FP), DI
	MOVQ L+16(FP), R8
	MOVQ groups+24(FP), BX
	MOVQ acc+48(FP), DX
	MOVQ next+80(FP), AX
	MOVQ pf+88(FP), CX
	SHLQ $2, R8          // one list, in bytes
	LEAQ (R8)(R8*1), R9  // two
	LEAQ (R9)(R8*1), R10 // three
	SHLQ $6, CX          // prefetch span per group, in bytes
	TESTQ BX, BX
	JLE   done

sums:
	LEAQ (AX)(CX*1), R11 // end of this group's prefetch span
	JMP  pfcond

prefetch:
	PREFETCHT0 (AX)
	ADDQ       $64, AX

pfcond:
	CMPQ AX, R11
	JB   prefetch
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	LEAQ   (DI)(R8*1), R11 // end of the group's first list
	JMP    cond

loop:
	MOVL (DI), R12 // 8·j of the group's four labellings at this element
	MOVL (DI)(R8*1), R13
	ACCUM(R12, R13, Z0, Z1, Z2, Z3, Z16, Z17)
	MOVL (DI)(R9*1), R12
	MOVL (DI)(R10*1), R13
	ACCUM(R12, R13, Z4, Z5, Z6, Z7, Z18, Z19)
	ADDQ $4, DI

cond:
	CMPQ DI, R11
	JNE  loop
	ADDQ R10, DI // the next group's first list

	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	ADDQ    $512, DX
	DECQ    BX
	JNZ     sums

	MOVQ groups+24(FP), BX
	MOVQ acc+48(FP), SI
	MOVQ qc+32(FP), CX
	MOVQ sign+40(FP), AX
	MOVQ out+56(FP), DX
	MOVQ ps+64(FP), R12
	MOVQ rs+72(FP), R13
	SHLQ $3, R12         // in bytes
	SHLQ $3, R13
	MOVQ R13, R9
	SHLQ $2, R9           // four rows on
	VXORPD Y15, Y15, Y15  // and the upper half of Z15

tails:
	VMOVUPD 0(SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	VMOVUPD 256(SI), Z4
	VMOVUPD 320(SI), Z5
	VMOVUPD 384(SI), Z6
	VMOVUPD 448(SI), Z7
	ADDQ    $512, SI

	TAIL8(Z0, Z1, 0(AX))
	TAIL8(Z2, Z3, 8(AX))
	TAIL8(Z4, Z5, 16(AX))
	TAIL8(Z6, Z7, 24(AX))
	ADDQ $32, AX

	// Statistic (labelling p, row r) goes to out[p*ps + r*rs]; Z0, Z2, Z4,
	// Z6 hold labellings 0…3, lanes = rows.
	CMPQ R12, $8
	JNE  bylabelling

	// ps == 1, the engine's [position][labelling] block: rows 0…3 from
	// the low halves, rows 4…7 from the high ones, four rows on.
	VEXTRACTF64X4 $1, Z0, Y1
	VEXTRACTF64X4 $1, Z2, Y3
	VEXTRACTF64X4 $1, Z4, Y5
	VEXTRACTF64X4 $1, Z6, Y7
	TRANSPOSE(Y0, Y2, Y4, Y6, DX)
	LEAQ          (DX)(R9*1), R10
	TRANSPOSE(Y1, Y3, Y5, Y7, R10)
	ADDQ          $32, DX
	JMP           next

bylabelling:
	// rs == 1, permutation-major (StatsBatch): one store per labelling.
	VMOVUPD Z0, (DX)
	VMOVUPD Z2, (DX)(R12*1)
	LEAQ    (DX)(R12*2), DX
	VMOVUPD Z4, (DX)
	VMOVUPD Z6, (DX)(R12*1)
	LEAQ    (DX)(R12*2), DX

next:
	DECQ BX
	JNZ  tails

done:
	VZEROUPPER
	RET
