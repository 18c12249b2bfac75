#include "textflag.h"

// ELEMWISE is the body shared by mulAVX and subAVX: vop on eight floats at a
// time, then sop on what is left of n. Every element is one operation with
// one rounding, so the vector and the scalar part give the same bits.
#define ELEMWISE(vop, sop) \
	MOVQ dst+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX; \
	MOVQ CX, BX; \
	ANDQ $-8, BX; \
	XORQ AX, AX; \
	JMP  vtest; \
vloop: \
	VMOVUPS (SI)(AX*4), Y0; \
	vop     (DX)(AX*4), Y0, Y0; \
	VMOVUPS Y0, (DI)(AX*4); \
	ADDQ    $8, AX; \
vtest: \
	CMPQ AX, BX; \
	JLT  vloop; \
	JMP  stest; \
sloop: \
	VMOVSS (SI)(AX*4), X0; \
	sop    (DX)(AX*4), X0, X0; \
	VMOVSS X0, (DI)(AX*4); \
	INCQ   AX; \
stest: \
	CMPQ AX, CX; \
	JLT  sloop; \
	VZEROUPPER; \
	RET

// func mulAVX(dst, a, b *float32, n int)
TEXT ·mulAVX(SB), NOSPLIT, $0-32
	ELEMWISE(VMULPS, VMULSS)

// func subAVX(dst, a, b *float32, n int)
TEXT ·subAVX(SB), NOSPLIT, $0-32
	ELEMWISE(VSUBPS, VSUBSS)
