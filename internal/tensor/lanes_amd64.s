#include "textflag.h"

// LANESTEP is eight rows of one k step: combine the block half-row at src
// with the broadcast q[p] in Y8, multiply by the broadcast w[p] in Y9, add
// into acc. Three instructions, three roundings; never VFMADD.
#define LANESTEP(op, src, t, acc) \
	op     src, Y8, t; \
	VMULPS Y9, t, t; \
	VADDPS t, acc, acc

// LANES is the body shared by lanesMulAVX2 and lanesSubAVX2. Y0–Y7 hold
// rows 0–63 (two per block: lanes 0–7 and 8–15); AX is the byte offset of
// column p inside a block (p·64), BX is p.
#define LANES(op) \
	MOVQ out+0(FP), DI; \
	MOVQ q+8(FP), SI; \
	MOVQ w+16(FP), DX; \
	MOVQ b0+24(FP), R8; \
	MOVQ b1+32(FP), R9; \
	MOVQ b2+40(FP), R10; \
	MOVQ b3+48(FP), R11; \
	MOVQ k+56(FP), CX; \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	XORQ AX, AX; \
	XORQ BX, BX; \
loop: \
	VBROADCASTSS (SI)(BX*4), Y8; \
	VBROADCASTSS (DX)(BX*4), Y9; \
	LANESTEP(op, (R8)(AX*1), Y10, Y0); \
	LANESTEP(op, 32(R8)(AX*1), Y11, Y1); \
	LANESTEP(op, (R9)(AX*1), Y12, Y2); \
	LANESTEP(op, 32(R9)(AX*1), Y13, Y3); \
	LANESTEP(op, (R10)(AX*1), Y14, Y4); \
	LANESTEP(op, 32(R10)(AX*1), Y15, Y5); \
	LANESTEP(op, (R11)(AX*1), Y10, Y6); \
	LANESTEP(op, 32(R11)(AX*1), Y11, Y7); \
	ADDQ $64, AX; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT  loop; \
	VMOVUPS Y0, 0(DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI); \
	VMOVUPS Y4, 128(DI); \
	VMOVUPS Y5, 160(DI); \
	VMOVUPS Y6, 192(DI); \
	VMOVUPS Y7, 224(DI); \
	VZEROUPPER; \
	RET

// func lanesMulAVX2(out, q, w, b0, b1, b2, b3 *float32, k int)
TEXT ·lanesMulAVX2(SB), NOSPLIT, $0-64
	LANES(VMULPS)

// func lanesSubAVX2(out, q, w, b0, b1, b2, b3 *float32, k int)
TEXT ·lanesSubAVX2(SB), NOSPLIT, $0-64
	LANES(VSUBPS)
