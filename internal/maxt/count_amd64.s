// The step-down counter's block lanes: tallyBlock on one [position][labelling]
// block per call, a strip of labellings' running maxima held in registers
// from the block's last position to its first.
//
// Each 64-bit lane performs tally's scalar operations on one labelling: the
// side transform as XOR/AND on the bit pattern, NaN → −Inf as an unordered
// compare and a blend or masked move, VMAXPD t,u — which is exactly
// t > u ? t : u, second operand on equal zeros and NaN — and two ordered ≥
// compares whose hits are added to integer accumulators.  Lane-wise compares
// are the scalar ones and integer adds commute, so the counts and u equal
// tallyBlock's on every bit pattern (FuzzCountBlock).
//
// A strip is F whole registers of labellings (at most eight), then, under
// AVX-512 only, a ragged register of P < 8 labellings in Z7.  F and P are
// constant for the strip, so the guards between registers are predicted
// branches; u is loaded before a strip's first position and stored after its
// last.
//
// Beyond AVX2, only AVX512F instructions are used (bestISA checks no other
// subset): VPXORQ/VPANDQ, not the DQ forms VXORPD/VANDPD, on zmm; KMOVW, not
// KMOVB; every ymm and xmm instruction on registers 0–15, so VEX-encoded.  No
// legacy-SSE instruction runs before VZEROUPPER (a MOVQ into an X register
// would make the CPU save and restore the upper halves around it, which
// costs more than the whole block).

#include "textflag.h"

DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8

DATA incraw<>+0(SB)/8, $0x0000000000000001
GLOBL incraw<>(SB), RODATA|NOPTR, $8

DATA incadj<>+0(SB)/8, $0x0000000100000000
GLOBL incadj<>(SB), RODATA|NOPTR, $8

// The frame both routines share:
// func(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64)
//
// Registers outside the vector file: SI the current position's first
// labelling of the strip, DX the position, CX the position stride nb·8, R8
// raw, R9 adj, R10 pobs, R12 the strip's byte offset into a position and u,
// BX its whole registers F, R11 F·64 and R13 its ragged lanes P (AVX-512).

// QUAD folds one register of four labellings at OFF(SI) whose running maxima
// are U: Y8 flip, Y9 keep, Y10 −Inf, Y11 the observed statistic, Y12 and
// Y13 the raw and adjusted counts (each hit's all-ones mask subtracted),
// Y14 and Y15 scratch.
#define QUAD(OFF, U) \
	VXORPD    OFF(SI), Y8, Y14    \
	VANDPD    Y9, Y14, Y14        \
	VCMPPD    $3, Y14, Y14, Y15   \
	VBLENDVPD Y15, Y10, Y14, Y14  \
	VMAXPD    U, Y14, U           \
	VCMPPD    $0x1D, Y11, Y14, Y15 \
	VPSUBQ    Y15, Y12, Y12       \
	VCMPPD    $0x1D, Y11, U, Y15  \
	VPSUBQ    Y15, Y13, Y13

// func countBlockAVX2(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64)
TEXT ·countBlockAVX2(SB), NOSPLIT, $0-144
	MOVQ pobs_len+40(FP), DX
	TESTQ DX, DX
	JEQ  done2
	MOVQ nb+24(FP), CX
	SHLQ $3, CX
	MOVQ pobs_base+32(FP), R10
	MOVQ raw_base+80(FP), R8
	MOVQ adj_base+104(FP), R9
	VBROADCASTSD flip+128(FP), Y8
	VBROADCASTSD keep+136(FP), Y9
	VBROADCASTSD neginf<>(SB), Y10
	XORQ R12, R12

strip2:
	MOVQ u_len+64(FP), BX
	SHLQ $3, BX
	SUBQ R12, BX     // bytes of u left
	JLE  done2
	MOVQ $256, AX
	CMPQ BX, AX
	CMOVQGT AX, BX
	SHRQ $5, BX      // F, 1 to 8 registers of four
	MOVQ u_base+56(FP), DI
	ADDQ R12, DI
	VMOVUPD (DI), Y0
	CMPQ BX, $1
	JLE  loaded2
	VMOVUPD 32(DI), Y1
	CMPQ BX, $2
	JLE  loaded2
	VMOVUPD 64(DI), Y2
	CMPQ BX, $3
	JLE  loaded2
	VMOVUPD 96(DI), Y3
	CMPQ BX, $4
	JLE  loaded2
	VMOVUPD 128(DI), Y4
	CMPQ BX, $5
	JLE  loaded2
	VMOVUPD 160(DI), Y5
	CMPQ BX, $6
	JLE  loaded2
	VMOVUPD 192(DI), Y6
	CMPQ BX, $7
	JLE  loaded2
	VMOVUPD 224(DI), Y7

loaded2:
	MOVQ pobs_len+40(FP), DX
	DECQ DX
	MOVQ DX, SI
	IMULQ CX, SI
	ADDQ blk_base+0(FP), SI
	ADDQ R12, SI

pos2:
	VBROADCASTSD (R10)(DX*8), Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	QUAD(0, Y0)
	CMPQ BX, $1
	JLE  reduce2
	QUAD(32, Y1)
	CMPQ BX, $2
	JLE  reduce2
	QUAD(64, Y2)
	CMPQ BX, $3
	JLE  reduce2
	QUAD(96, Y3)
	CMPQ BX, $4
	JLE  reduce2
	QUAD(128, Y4)
	CMPQ BX, $5
	JLE  reduce2
	QUAD(160, Y5)
	CMPQ BX, $6
	JLE  reduce2
	QUAD(192, Y6)
	CMPQ BX, $7
	JLE  reduce2
	QUAD(224, Y7)

reduce2:
	VPUNPCKLQDQ  Y13, Y12, Y14 // r0 a0 r2 a2
	VPUNPCKHQDQ  Y13, Y12, Y15 // r1 a1 r3 a3
	VPADDQ       Y15, Y14, Y14
	VEXTRACTI128 $1, Y14, X15
	VPADDQ       X15, X14, X14 // raw, adjusted
	VMOVQ        X14, AX
	VPEXTRQ      $1, X14, DI
	ADDQ AX, (R8)(DX*8)
	ADDQ DI, (R9)(DX*8)
	SUBQ CX, SI
	DECQ DX
	JGE  pos2

	MOVQ u_base+56(FP), DI
	ADDQ R12, DI
	VMOVUPD Y0, (DI)
	CMPQ BX, $1
	JLE  stored2
	VMOVUPD Y1, 32(DI)
	CMPQ BX, $2
	JLE  stored2
	VMOVUPD Y2, 64(DI)
	CMPQ BX, $3
	JLE  stored2
	VMOVUPD Y3, 96(DI)
	CMPQ BX, $4
	JLE  stored2
	VMOVUPD Y4, 128(DI)
	CMPQ BX, $5
	JLE  stored2
	VMOVUPD Y5, 160(DI)
	CMPQ BX, $6
	JLE  stored2
	VMOVUPD Y6, 192(DI)
	CMPQ BX, $7
	JLE  stored2
	VMOVUPD Y7, 224(DI)

stored2:
	ADDQ $256, R12
	JMP  strip2

done2:
	VZEROUPPER
	RET

// LANE folds one register of eight labellings at OFF(SI) whose running
// maxima are U: Z16 flip, Z17 keep, Z18 −Inf, Z19 and Z20 the raw and
// adjusted increments, Z21 the observed statistic, Z8 the position's packed
// counts (raw in each qword's low half, adjusted in its high half), Z24
// scratch.
#define LANE(OFF, U) \
	VPXORQ  OFF(SI), Z16, Z24    \
	VPANDQ  Z17, Z24, Z24        \
	VCMPPD  $3, Z24, Z24, K1     \
	VMOVAPD Z18, K1, Z24         \
	VMAXPD  U, Z24, U            \
	VCMPPD  $0x1D, Z21, Z24, K2  \
	VCMPPD  $0x1D, Z21, U, K3    \
	VPADDQ  Z19, Z8, K2, Z8      \
	VPADDQ  Z20, Z8, K3, Z8

// func countBlockAVX512(blk []float64, nb int, pobs, u []float64, raw, adj []int64, flip, keep uint64)
TEXT ·countBlockAVX512(SB), NOSPLIT, $0-144
	MOVQ pobs_len+40(FP), DX
	TESTQ DX, DX
	JEQ  done5
	MOVQ nb+24(FP), CX
	SHLQ $3, CX
	MOVQ pobs_base+32(FP), R10
	MOVQ raw_base+80(FP), R8
	MOVQ adj_base+104(FP), R9
	VPBROADCASTQ flip+128(FP), Z16
	VPBROADCASTQ keep+136(FP), Z17
	VPBROADCASTQ neginf<>(SB), Z18
	VPBROADCASTQ incraw<>(SB), Z19
	VPBROADCASTQ incadj<>(SB), Z20
	XORQ R12, R12

strip5:
	MOVQ u_len+64(FP), BX
	SHLQ $3, BX
	SUBQ R12, BX     // bytes of u left
	JLE  done5
	MOVQ $512, AX
	CMPQ BX, AX
	CMOVQGT AX, BX
	MOVQ BX, R13
	ANDQ $63, R13
	SHRQ $3, R13     // P
	MOVQ BX, R11
	ANDQ $-64, R11   // F·64
	MOVQ R11, BX
	SHRQ $6, BX      // F
	MOVQ R13, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K4     // the ragged register's lanes
	MOVQ nb+24(FP), CX
	SHLQ $3, CX
	MOVQ u_base+56(FP), DI
	ADDQ R12, DI
	CMPQ BX, $0
	JLE  part5
	VMOVUPD (DI), Z0
	CMPQ BX, $1
	JLE  part5
	VMOVUPD 64(DI), Z1
	CMPQ BX, $2
	JLE  part5
	VMOVUPD 128(DI), Z2
	CMPQ BX, $3
	JLE  part5
	VMOVUPD 192(DI), Z3
	CMPQ BX, $4
	JLE  part5
	VMOVUPD 256(DI), Z4
	CMPQ BX, $5
	JLE  part5
	VMOVUPD 320(DI), Z5
	CMPQ BX, $6
	JLE  part5
	VMOVUPD 384(DI), Z6
	CMPQ BX, $7
	JLE  part5
	VMOVUPD 448(DI), Z7
	JMP  loaded5

part5:
	VMOVUPD.Z (DI)(R11*1), K4, Z7

loaded5:
	MOVQ pobs_len+40(FP), DX
	DECQ DX
	MOVQ DX, SI
	IMULQ CX, SI
	ADDQ blk_base+0(FP), SI
	ADDQ R12, SI

pos5:
	VBROADCASTSD (R10)(DX*8), Z21
	VPXOR X8, X8, X8
	CMPQ BX, $0
	JLE  ragged5
	LANE(0, Z0)
	CMPQ BX, $1
	JLE  ragged5
	LANE(64, Z1)
	CMPQ BX, $2
	JLE  ragged5
	LANE(128, Z2)
	CMPQ BX, $3
	JLE  ragged5
	LANE(192, Z3)
	CMPQ BX, $4
	JLE  ragged5
	LANE(256, Z4)
	CMPQ BX, $5
	JLE  ragged5
	LANE(320, Z5)
	CMPQ BX, $6
	JLE  ragged5
	LANE(384, Z6)
	CMPQ BX, $7
	JLE  ragged5
	LANE(448, Z7)
	JMP  reduce5

ragged5:
	TESTQ R13, R13
	JEQ   reduce5
	VMOVUPD.Z (SI)(R11*1), K4, Z24
	VPXORQ  Z16, Z24, Z24
	VPANDQ  Z17, Z24, Z24
	VCMPPD  $3, Z24, Z24, K1
	VMOVAPD Z18, K1, Z24
	VMAXPD  Z7, Z24, Z7
	VCMPPD  $0x1D, Z21, Z24, K4, K2
	VCMPPD  $0x1D, Z21, Z7, K4, K3
	VPADDQ  Z19, Z8, K2, Z8
	VPADDQ  Z20, Z8, K3, Z8

reduce5:
	VEXTRACTI64X4 $1, Z8, Y9
	VPADDQ        Y9, Y8, Y8
	VEXTRACTI128  $1, Y8, X9
	VPADDQ        X9, X8, X8
	VPSHUFD       $0x4E, X8, X9
	VPADDQ        X9, X8, X8
	VMOVQ         X8, AX
	MOVL AX, DI      // raw
	SHRQ $32, AX     // adjusted
	ADDQ DI, (R8)(DX*8)
	ADDQ AX, (R9)(DX*8)
	SUBQ CX, SI
	DECQ DX
	JGE  pos5

	MOVQ u_base+56(FP), DI
	ADDQ R12, DI
	CMPQ BX, $0
	JLE  spart5
	VMOVUPD Z0, (DI)
	CMPQ BX, $1
	JLE  spart5
	VMOVUPD Z1, 64(DI)
	CMPQ BX, $2
	JLE  spart5
	VMOVUPD Z2, 128(DI)
	CMPQ BX, $3
	JLE  spart5
	VMOVUPD Z3, 192(DI)
	CMPQ BX, $4
	JLE  spart5
	VMOVUPD Z4, 256(DI)
	CMPQ BX, $5
	JLE  spart5
	VMOVUPD Z5, 320(DI)
	CMPQ BX, $6
	JLE  spart5
	VMOVUPD Z6, 384(DI)
	CMPQ BX, $7
	JLE  spart5
	VMOVUPD Z7, 448(DI)
	JMP  stored5

spart5:
	VMOVUPD Z7, K4, (DI)(R11*1)

stored5:
	ADDQ $512, R12
	JMP  strip5

done5:
	VZEROUPPER
	RET
