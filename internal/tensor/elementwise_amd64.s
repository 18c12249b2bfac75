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

// func reluAVX(x *float32, n int)
//
// VCMPPS's ordered, quiet less-than (predicate 0x11) against zero is false
// for -0 and for every NaN, true for everything from the smallest negative
// denormal down to -Inf; VANDNPS clears the lanes it is true for and leaves
// every other bit as it was. Eight floats at a time, then VCMPSS one at a
// time for what is left of n.
TEXT ·reluAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ CX, BX
	ANDQ $-8, BX
	XORQ AX, AX
	VXORPS Y1, Y1, Y1
	JMP  rvtest
rvloop:
	VMOVUPS (DI)(AX*4), Y0
	VCMPPS  $0x11, Y1, Y0, Y2 // x < 0
	VANDNPS Y0, Y2, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
rvtest:
	CMPQ AX, BX
	JLT  rvloop
	JMP  rstest
rsloop:
	VMOVSS  (DI)(AX*4), X0
	VCMPSS  $0x11, X1, X0, X2
	VANDNPS X0, X2, X0
	VMOVSS  X0, (DI)(AX*4)
	INCQ    AX
rstest:
	CMPQ AX, CX
	JLT  rsloop
	VZEROUPPER
	RET
