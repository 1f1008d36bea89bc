// Shared by the two-sample t lanes, tsQuad (accum_avx2_amd64.s) and tsOct
// (accum_avx512_amd64.s).  A multi-line #define takes no comments.

// The tail's constants in qc (BatchScratch.openQuad): fa fb da db scale
// rt m2Tol NaN four times each — a ymm operand for tsQuad, the first copy
// a broadcast scalar for tsOct — then S and Q by row, eight slots each (a
// quad uses the first four).
#define FA    0(CX)
#define FB    32(CX)
#define DA    64(CX)
#define DB    96(CX)
#define SCALE 128(CX)
#define RT    160(CX)
#define TOL   192(CX)
#define NANV  224(CX)
#define SROW  256(CX)
#define QROW  320(CX)

// TRANSPOSE stores four labellings' statistics of four rows (A, B, C, D,
// lanes = rows) into the rows of a [position][labelling] block at P, R13
// bytes apart: a 4×4 transpose to lanes = labellings, then one 32-byte
// store per row.  Y8–Y11 and R11 are scratch; A…D are overwritten.
#define TRANSPOSE(A, B, C, D, P) \
	VUNPCKLPD  B, A, Y8          \
	VUNPCKHPD  B, A, Y9          \
	VUNPCKLPD  D, C, Y10         \
	VUNPCKHPD  D, C, Y11         \
	VPERM2F128 $0x20, Y10, Y8, A \
	VPERM2F128 $0x20, Y11, Y9, B \
	VPERM2F128 $0x31, Y10, Y8, C \
	VPERM2F128 $0x31, Y11, Y9, D \
	LEAQ       (P)(R13*2), R11   \
	VMOVUPD    A, (P)            \
	VMOVUPD    B, (P)(R13*1)     \
	VMOVUPD    C, (R11)          \
	VMOVUPD    D, (R11)(R13*1)
