// The AVX2 lanes, lanes = rows: tsQuad, the two-sample t fast path (four
// aligned NA-free rows of the kernel's octets under every group of four
// labellings — accumulate, tail and store), and wilxQuad, the Wilcoxon
// delta lane (one row quad along a revolving-door chain).
//
// tsQuad.  The rows are read where the kernel keeps them (rowGroups): a
// column of an octet is one 64-byte line (x at 8j+r), and oct is the first
// row's column 0, so the quad is the line's first or second half and the
// other half is not read.  The lists hold 8·j, so one element of one
// labelling is one load, s += x, then x·x and q += x·x: VMULPD then
// VADDPD, the rounded product the scalar chain adds, never an FMA.  Four
// labellings run eight chains at once (Y0…Y7 = s0 q0 s1 q1 s2 q2 s3 q3);
// within a chain the adds come in ascending selected-column order, as in
// Stats.  As in tsOct, a first pass stores every group's chains to acc
// (256 bytes a group) and a second runs the tails and the stores, so a
// group's square root and division do not hold the next group's sums
// behind them; each labelling's operations are unchanged.
//
// TAIL is tsTail.stat lane-wise, operation for operation: S−sa, Q−qa,
// qa·fa − sa·sa, the clamp m2 < (q·f)·m2Tol → +0 as an ordered compare and
// an and-not, (m2a·db + m2b·da)·scale, ((sign·(sa·fb − sb·fa))·rt) /
// sqrt(den), and den == 0 → the bits of math.NaN() as a compare and a
// blend.  Each is the IEEE-754 operation the compiled Go performs on the
// same operands — no FMA, no reassociation — so a lane's result is Stats'
// on every bit; a NaN that arises (Inf − Inf, 0·Inf, the root of a
// negative) is the one default quiet NaN whichever operand order the
// compiler chose, so payloads agree too (TestStatsBatchISASweep, FuzzTSQuad).
// The constants come ready broadcast from qc (lanes_amd64.h).
//
// Every vector instruction up to VZEROUPPER is VEX-encoded (see
// internal/maxt/count_amd64.s for what one legacy-SSE instruction among
// them costs), and a multi-line #define takes no comments.

#include "textflag.h"
#include "lanes_amd64.h"

// TAIL turns one labelling's sums S and sums of squares Q into its four
// statistics, left in S.  SG is the labelling's sign; Y15 is zero; Y8–Y13
// are scratch: Y8 = sb, Y9 = qb, Y11 = m2a then den, Y13 = m2b, Y12 the
// numerator.
#define TAIL(S, Q, SG) \
	VMOVUPD   SROW, Y8            \
	VSUBPD    S, Y8, Y8           \
	VMOVUPD   QROW, Y9            \
	VSUBPD    Q, Y9, Y9           \
	VMULPD    FA, Q, Y10          \
	VMULPD    S, S, Y11           \
	VSUBPD    Y11, Y10, Y11       \
	VMULPD    TOL, Y10, Y10       \
	VCMPPD    $0x11, Y10, Y11, Y10 \
	VANDNPD   Y11, Y10, Y11       \
	VMULPD    FB, Y9, Y12         \
	VMULPD    Y8, Y8, Y13         \
	VSUBPD    Y13, Y12, Y13       \
	VMULPD    TOL, Y12, Y12       \
	VCMPPD    $0x11, Y12, Y13, Y12 \
	VANDNPD   Y13, Y12, Y13       \
	VMULPD    DB, Y11, Y11        \
	VMULPD    DA, Y13, Y13        \
	VADDPD    Y13, Y11, Y11       \
	VMULPD    SCALE, Y11, Y11     \
	VMULPD    FB, S, Y12          \
	VMULPD    FA, Y8, Y8          \
	VSUBPD    Y8, Y12, Y12        \
	VBROADCASTSD SG, Y8           \
	VMULPD    Y12, Y8, Y12        \
	VMULPD    RT, Y12, Y12        \
	VSQRTPD   Y11, Y13            \
	VDIVPD    Y13, Y12, Y12       \
	VCMPPD    $0, Y15, Y11, Y11   \
	VBLENDVPD Y11, NANV, Y12, S

// SCATTER stores one labelling's four statistics a row stride (R13 bytes)
// apart and steps DX to the next labelling (R12 bytes on).
#define SCATTER(Y, X) \
	VMOVLPD      X, (DX)         \
	VMOVHPD      X, (DX)(R13*1)  \
	VEXTRACTF128 $1, Y, X        \
	LEAQ         (DX)(R13*2), R11 \
	VMOVLPD      X, (R11)        \
	VMOVHPD      X, (R11)(R13*1) \
	ADDQ         R12, DX

// BYROW stores four labellings' statistics (Y0, Y2, Y4, Y6, lanes = rows)
// into the rows of a [position][labelling] block (TRANSPOSE), and DX steps
// to the next four labellings.
#define BYROW \
	TRANSPOSE(Y0, Y2, Y4, Y6, DX) \
	ADDQ $32, DX

// BYLABELLING stores the same four as one 32-byte store per labelling,
// R12 bytes apart (rows contiguous), and steps DX past them.
#define BYLABELLING \
	VMOVUPD Y0, (DX)        \
	VMOVUPD Y2, (DX)(R12*1) \
	LEAQ    (DX)(R12*2), DX \
	VMOVUPD Y4, (DX)        \
	VMOVUPD Y6, (DX)(R12*1) \
	LEAQ    (DX)(R12*2), DX

// func tsQuad(oct *float64, sel8 *int32, L, groups int, qc *[48]float64, sign, acc, out *float64, ps, rs int)
TEXT ·tsQuad(SB), NOSPLIT, $0-80
	MOVQ oct+0(FP), SI
	MOVQ sel8+8(FP), DI
	MOVQ L+16(FP), R8
	MOVQ groups+24(FP), BX
	MOVQ acc+48(FP), DX
	SHLQ $2, R8          // one list, in bytes
	LEAQ (R8)(R8*1), R9  // two
	LEAQ (R9)(R8*1), R10 // three
	TESTQ  BX, BX
	JLE    done

group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (DI)(R8*1), R11 // end of the group's first list
	JMP    cond

loop:
	MOVL    (DI), R12 // 8·j of the group's four labellings at this element
	MOVL    (DI)(R8*1), R13
	VMOVUPD (SI)(R12*8), Y8
	VMOVUPD (SI)(R13*8), Y9
	VADDPD  Y8, Y0, Y0
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y1, Y1
	VADDPD  Y9, Y2, Y2
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y3, Y3
	MOVL    (DI)(R9*1), R12
	MOVL    (DI)(R10*1), R13
	VMOVUPD (SI)(R12*8), Y10
	VMOVUPD (SI)(R13*8), Y11
	VADDPD  Y10, Y4, Y4
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y5, Y5
	VADDPD  Y11, Y6, Y6
	VMULPD  Y11, Y11, Y11
	VADDPD  Y11, Y7, Y7
	ADDQ    $4, DI

cond:
	CMPQ DI, R11
	JNE  loop
	ADDQ R10, DI // the next group's first list
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	ADDQ    $256, DX
	DECQ BX
	JNZ  group

	MOVQ groups+24(FP), BX
	MOVQ acc+48(FP), SI
	MOVQ qc+32(FP), CX
	MOVQ sign+40(FP), AX
	MOVQ out+56(FP), DX
	VXORPD Y15, Y15, Y15

tails:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVUPD 192(SI), Y6
	VMOVUPD 224(SI), Y7
	ADDQ $256, SI
	TAIL(Y0, Y1, 0(AX))
	TAIL(Y2, Y3, 8(AX))
	TAIL(Y4, Y5, 16(AX))
	TAIL(Y6, Y7, 24(AX))
	ADDQ $32, AX

	MOVQ ps+64(FP), R12
	MOVQ rs+72(FP), R13
	SHLQ $3, R13
	CMPQ R12, $1
	JNE  bylabelling
	BYROW
	JMP next

bylabelling:
	SHLQ $3, R12
	CMPQ R13, $8
	JNE  scatter
	BYLABELLING
	JMP next

scatter:
	SCATTER(Y0, X0)
	SCATTER(Y2, X2)
	SCATTER(Y4, X4)
	SCATTER(Y6, X6)

next:
	DECQ BX
	JNZ  tails

done:
	VZEROUPPER
	RET

// wilxQuad.  q holds the quad column by column, four int32 cells per
// 16-byte column (intRank), and dq byte offsets 16·j into it: L start
// columns, then one (In, Out) pair per labelling, labelling 0's a move
// that changes nothing.  X1 carries the four rows' class-1 sums in int32:
// a move is two loads, VPSUBD and VPADDD, exact like fullLane's int64
// update for sums within int32, which quadLane guarantees.  The tail is
// fullLane's, lane-wise: VCVTDQ2PD (exact), ·0.5, − mu1, / sd; under neg
// the converted value is sum2 − s and total − ·0.5 comes before − mu1.
// Each is the IEEE-754 operation the compiled Go performs on the same
// operands, so a lane's result is fullLane's on every bit
// (TestDeltaRowsISASweep, FuzzWilxQuad).  Constants: Y12 0.5, Y13 mu1,
// Y14 sd, Y15 total (qc), X5 sum2 (qs[4:8]); results go to Y0, Y2, Y4, Y6
// for the shared stores.

// STEP applies the next labelling's move to the sums in X1.
#define STEP \
	MOVL    (DI), R9            \
	MOVL    4(DI), R10          \
	VMOVDQU (SI)(R9*1), X3      \
	VPSUBD  (SI)(R10*1), X3, X3 \
	VPADDD  X3, X1, X1          \
	ADDQ    $8, DI

// POS turns the converted class-1 sums in Y into statistics.
#define POS(Y) \
	VMULPD Y12, Y, Y \
	VSUBPD Y13, Y, Y \
	VDIVPD Y14, Y, Y

// NEG steps and turns the class-0 sums sum2 − s into statistics in Y.
#define NEG(Y) \
	STEP                 \
	VPSUBD    X1, X5, X3 \
	VCVTDQ2PD X3, Y      \
	VMULPD    Y12, Y, Y  \
	VSUBPD    Y, Y15, Y  \
	VSUBPD    Y13, Y, Y  \
	VDIVPD    Y14, Y, Y

// func wilxQuad(q, dq *int32, L, groups int, qc *[48]float64, qs *[8]int32, neg bool, out *float64, ps, rs int)
TEXT ·wilxQuad(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), SI
	MOVQ dq+8(FP), DI
	MOVQ L+16(FP), R8
	MOVQ groups+24(FP), BX
	MOVQ qc+32(FP), CX
	MOVQ qs+40(FP), AX
	MOVQ out+56(FP), DX
	MOVQ ps+64(FP), R12
	MOVQ rs+72(FP), R13
	SHLQ $3, R12 // in bytes
	SHLQ $3, R13
	VPXOR X1, X1, X1
	TESTQ R8, R8
	JLE   started

start: // the start labelling's class-1 sums
	MOVL   (DI), R9
	VPADDD (SI)(R9*1), X1, X1
	ADDQ   $4, DI
	DECQ   R8
	JNZ    start

started:
	TESTQ   BX, BX
	JLE     done
	VMOVUPD 0(CX), Y12
	VMOVUPD 32(CX), Y13
	VMOVUPD 64(CX), Y14
	VMOVUPD 96(CX), Y15
	VMOVDQU 16(AX), X5
	CMPB    neg+48(FP), $0
	JNE     negative

positive:
	STEP
	VCVTDQ2PD X1, Y0
	STEP
	VCVTDQ2PD X1, Y2
	STEP
	VCVTDQ2PD X1, Y4
	STEP
	VCVTDQ2PD X1, Y6
	POS(Y0)
	POS(Y2)
	POS(Y4)
	POS(Y6)
	JMP store

negative:
	NEG(Y0)
	NEG(Y2)
	NEG(Y4)
	NEG(Y6)

store:
	CMPQ R12, $8
	JNE  bylabelling
	BYROW
	JMP  next

bylabelling:
	CMPQ R13, $8
	JNE  scatter
	BYLABELLING
	JMP  next

scatter:
	SCATTER(Y0, X0)
	SCATTER(Y2, X2)
	SCATTER(Y4, X4)
	SCATTER(Y6, X6)

next:
	DECQ BX
	JZ   done
	CMPB neg+48(FP), $0
	JNE  negative
	JMP  positive

done:
	VMOVDQU X1, (AX) // the running sums, for the labellings left over
	VZEROUPPER
	RET
