// The AVX-512 lane, lanes = rows: tsOct, the two-sample t fast path for one
// NA-free row octet under every group of four labellings — tsQuad
// (accum_avx2_amd64.s) eight rows wide.
//
// v8 holds the octet column by column, a column's eight values in one
// 64-byte line (v8[8j+r] = x), and the lists hold 8·j, so one element of
// one labelling is one zmm load, s += x, then x·x and q += x·x: VMULPD then
// VADDPD, the rounded product the scalar chain adds, never an FMA.  Four
// labellings run eight chains at once (Z0…Z7 = s0 q0 s1 q1 s2 q2 s3 q3);
// within a chain the adds come in ascending selected-column order, as in
// Stats.
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

// func tsOct(v8 *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, out *float64, ps, rs int)
TEXT ·tsOct(SB), NOSPLIT, $0-72
	MOVQ v8+0(FP), SI
	MOVQ sel8+8(FP), DI
	MOVQ L+16(FP), R8
	MOVQ groups+24(FP), BX
	MOVQ qc+32(FP), CX
	MOVQ sign+40(FP), AX
	MOVQ out+48(FP), DX
	SHLQ $2, R8          // one list, in bytes
	LEAQ (R8)(R8*1), R9  // two
	LEAQ (R9)(R8*1), R10 // three
	VXORPD Y15, Y15, Y15 // and the upper half of Z15
	TESTQ  BX, BX
	JLE    done

group:
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

	TAIL8(Z0, Z1, 0(AX))
	TAIL8(Z2, Z3, 8(AX))
	TAIL8(Z4, Z5, 16(AX))
	TAIL8(Z6, Z7, 24(AX))
	ADDQ $32, AX

	// Statistic (labelling p, row r) goes to out[p*ps + r*rs]; Z0, Z2, Z4,
	// Z6 hold labellings 0…3, lanes = rows.
	MOVQ ps+56(FP), R12
	MOVQ rs+64(FP), R13
	SHLQ $3, R13
	CMPQ R12, $1
	JNE  bylabelling

	// ps == 1, the engine's [position][labelling] block: rows 0…3 from
	// the low halves, rows 4…7 from the high ones, four rows on.
	VEXTRACTF64X4 $1, Z0, Y1
	VEXTRACTF64X4 $1, Z2, Y3
	VEXTRACTF64X4 $1, Z4, Y5
	VEXTRACTF64X4 $1, Z6, Y7
	TRANSPOSE(Y0, Y2, Y4, Y6, DX)
	LEAQ          (DX)(R13*4), R12
	TRANSPOSE(Y1, Y3, Y5, Y7, R12)
	ADDQ          $32, DX
	JMP           next

bylabelling:
	// rs == 1, permutation-major (StatsBatch): one store per labelling.
	SHLQ    $3, R12
	VMOVUPD Z0, (DX)
	VMOVUPD Z2, (DX)(R12*1)
	LEAQ    (DX)(R12*2), DX
	VMOVUPD Z4, (DX)
	VMOVUPD Z6, (DX)(R12*1)
	LEAQ    (DX)(R12*2), DX

next:
	DECQ BX
	JNZ  group

done:
	VZEROUPPER
	RET
