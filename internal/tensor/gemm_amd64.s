#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TRANSPOSE4 transposes the 4×4 blocks of floats held in each 128-bit half of
// (a, b, c, d), in place, using t0–t3. With a..d the accumulators of columns
// 0..3 (lanes = rows 0–7) it leaves a = rows {0,4}, b = {1,5}, c = {2,6},
// d = {3,7}, four columns each — and, being an involution, the reverse.
#define TRANSPOSE4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPS b, a, t0; \
	VUNPCKHPS b, a, t1; \
	VUNPCKLPS d, c, t2; \
	VUNPCKHPS d, c, t3; \
	VUNPCKLPD t2, t0, a; \
	VUNPCKHPD t2, t0, b; \
	VUNPCKLPD t3, t1, c; \
	VUNPCKHPD t3, t1, d

// MAC is one W row against both halves of the A panel row: multiply, round,
// add, round. Never VFMADD: the contract is two roundings per MAC.
#define MAC(wrow, lo, hi) \
	VBROADCASTSS (wrow)(AX*4), Y10; \
	VMULPS Y10, Y8, Y11; \
	VMULPS Y10, Y9, Y12; \
	VADDPS Y11, lo, lo; \
	VADDPS Y12, hi, hi

// func gemmKernelAVX2(c *float32, ldc int, ap, w0, w1, w2, w3 *float32, kb, mr int, first bool)
//
// Y0–Y3 accumulate columns 0–3 for tile rows 0–7, Y4–Y7 for rows 8–15.
// The 256-byte frame is the tile in C's layout (16 rows × 4 floats): C is
// only ever touched by copying mr rows between it and the frame.
TEXT ·gemmKernelAVX2(SB), NOSPLIT, $256-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8 // row stride of C in bytes
	MOVQ ap+16(FP), SI
	MOVQ w0+24(FP), R9
	MOVQ w1+32(FP), R11
	MOVQ w2+40(FP), R12
	MOVQ w3+48(FP), R13
	MOVQ kb+56(FP), CX
	MOVQ mr+64(FP), DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVBLZX first+72(FP), AX
	TESTL AX, AX
	JNZ accumulate

	// Resume: zero the frame tile, copy in the mr live rows of C, and
	// transpose it into the accumulators.
	VMOVUPS Y0, 0(SP)
	VMOVUPS Y0, 32(SP)
	VMOVUPS Y0, 64(SP)
	VMOVUPS Y0, 96(SP)
	VMOVUPS Y0, 128(SP)
	VMOVUPS Y0, 160(SP)
	VMOVUPS Y0, 192(SP)
	VMOVUPS Y0, 224(SP)
	MOVQ DI, AX
	MOVQ SP, BX
	MOVQ DX, R10
copyin:
	VMOVUPS (AX), X8
	VMOVUPS X8, (BX)
	ADDQ R8, AX
	ADDQ $16, BX
	DECQ R10
	JNZ copyin
	VMOVUPS 0(SP), X0
	VMOVUPS 16(SP), X1
	VMOVUPS 32(SP), X2
	VMOVUPS 48(SP), X3
	VINSERTF128 $1, 64(SP), Y0, Y0
	VINSERTF128 $1, 80(SP), Y1, Y1
	VINSERTF128 $1, 96(SP), Y2, Y2
	VINSERTF128 $1, 112(SP), Y3, Y3
	VMOVUPS 128(SP), X4
	VMOVUPS 144(SP), X5
	VMOVUPS 160(SP), X6
	VMOVUPS 176(SP), X7
	VINSERTF128 $1, 192(SP), Y4, Y4
	VINSERTF128 $1, 208(SP), Y5, Y5
	VINSERTF128 $1, 224(SP), Y6, Y6
	VINSERTF128 $1, 240(SP), Y7, Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

accumulate:
	XORQ AX, AX // p
loop:
	VMOVUPS (SI), Y8   // panel row p, lanes 0–7
	VMOVUPS 32(SI), Y9 // lanes 8–15
	MAC(R9, Y0, Y4)
	MAC(R11, Y1, Y5)
	MAC(R12, Y2, Y6)
	MAC(R13, Y3, Y7)
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JLT loop

	// Transpose the accumulators into the frame tile and copy mr rows out.
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPS X0, 0(SP)
	VMOVUPS X1, 16(SP)
	VMOVUPS X2, 32(SP)
	VMOVUPS X3, 48(SP)
	VEXTRACTF128 $1, Y0, 64(SP)
	VEXTRACTF128 $1, Y1, 80(SP)
	VEXTRACTF128 $1, Y2, 96(SP)
	VEXTRACTF128 $1, Y3, 112(SP)
	VMOVUPS X4, 128(SP)
	VMOVUPS X5, 144(SP)
	VMOVUPS X6, 160(SP)
	VMOVUPS X7, 176(SP)
	VEXTRACTF128 $1, Y4, 192(SP)
	VEXTRACTF128 $1, Y5, 208(SP)
	VEXTRACTF128 $1, Y6, 224(SP)
	VEXTRACTF128 $1, Y7, 240(SP)
	MOVQ SP, BX
copyout:
	VMOVUPS (BX), X8
	VMOVUPS X8, (DI)
	ADDQ $16, BX
	ADDQ R8, DI
	DECQ DX
	JNZ copyout
	VZEROUPPER
	RET

// ZMAC is one W column of the 16×8 tile: the W element broadcast from
// memory into every lane, multiplied by the panel row, rounded, then added
// to the column's accumulator and rounded. Never VFMADD.
#define ZMAC(wrow, t, acc) \
	VMULPS.BCST (wrow)(AX*4), Z8, t; \
	VADDPS t, acc, acc

// LOADT and STORET move one transposed accumulator z (x is its low 128
// bits) between the register and the frame tile, whose rows are 32 bytes
// apart: 128-bit lane q of Zs is row 4q+s, columns 0–3 (off = 32s), and
// lane q of Z(4+s) the same row's columns 4–7 (off = 32s+16), s in [0, 4).
#define LOADT(z, x, off) \
	VMOVUPS off(SP), x; \
	VINSERTF32X4 $1, off+128(SP), z, z; \
	VINSERTF32X4 $2, off+256(SP), z, z; \
	VINSERTF32X4 $3, off+384(SP), z, z

#define STORET(z, x, off) \
	VMOVUPS x, off(SP); \
	VEXTRACTF32X4 $1, z, off+128(SP); \
	VEXTRACTF32X4 $2, z, off+256(SP); \
	VEXTRACTF32X4 $3, z, off+384(SP)

// func gemmKernelAVX512(c *float32, ldc int, ap *float32, w *[8]*float32, bias *float32, kb, mr int, first bool)
//
// Z0–Z7 accumulate columns 0–7, one lane per tile row; Z8 holds the panel
// row and Z16–Z23 the products. The 512-byte frame is the tile in C's
// layout (16 rows × 8 floats): C is only ever touched by copying mr rows
// between it and the frame. In the frame's transposed view a 4×4 transpose
// of each 128-bit lane of Z0–Z3 (and of Z4–Z7) turns columns into rows.
TEXT ·gemmKernelAVX512(SB), NOSPLIT, $512-57
	VXORPS Y0, Y0, Y0 // VEX zeroes the upper half of Z0 as well
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVBLZX first+56(FP), AX
	TESTL AX, AX
	JNZ accumulate

	// Resume: zero the frame tile, copy in the mr live rows of C, and
	// transpose it into the accumulators.
	VMOVUPS Z0, 0(SP)
	VMOVUPS Z0, 64(SP)
	VMOVUPS Z0, 128(SP)
	VMOVUPS Z0, 192(SP)
	VMOVUPS Z0, 256(SP)
	VMOVUPS Z0, 320(SP)
	VMOVUPS Z0, 384(SP)
	VMOVUPS Z0, 448(SP)
	MOVQ c+0(FP), AX
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8 // row stride of C in bytes
	MOVQ mr+48(FP), DX
	MOVQ SP, BX
zcopyin:
	VMOVUPS (AX), Y8
	VMOVUPS Y8, (BX)
	ADDQ R8, AX
	ADDQ $32, BX
	DECQ DX
	JNZ zcopyin
	LOADT(Z0, X0, 0)
	LOADT(Z1, X1, 32)
	LOADT(Z2, X2, 64)
	LOADT(Z3, X3, 96)
	LOADT(Z4, X4, 16)
	LOADT(Z5, X5, 48)
	LOADT(Z6, X6, 80)
	LOADT(Z7, X7, 112)
	TRANSPOSE4(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11)
	TRANSPOSE4(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)

accumulate:
	MOVQ ap+16(FP), SI
	MOVQ w+24(FP), AX
	MOVQ 0(AX), BX
	MOVQ 8(AX), DX
	MOVQ 16(AX), DI
	MOVQ 24(AX), R8
	MOVQ 32(AX), R9
	MOVQ 40(AX), R10
	MOVQ 48(AX), R11
	MOVQ 56(AX), R12
	MOVQ kb+40(FP), CX
	XORQ AX, AX // p
zloop:
	VMOVUPS (SI), Z8 // panel row p, all sixteen lanes
	ZMAC(BX, Z16, Z0)
	ZMAC(DX, Z17, Z1)
	ZMAC(DI, Z18, Z2)
	ZMAC(R8, Z19, Z3)
	ZMAC(R9, Z20, Z4)
	ZMAC(R10, Z21, Z5)
	ZMAC(R11, Z22, Z6)
	ZMAC(R12, Z23, Z7)
	ADDQ $64, SI
	INCQ AX
	CMPQ AX, CX
	JLT zloop

	// The bias, on the last K panel only: after the whole reduction.
	MOVQ bias+32(FP), AX
	TESTQ AX, AX
	JZ zstore
	VADDPS.BCST 0(AX), Z0, Z0
	VADDPS.BCST 4(AX), Z1, Z1
	VADDPS.BCST 8(AX), Z2, Z2
	VADDPS.BCST 12(AX), Z3, Z3
	VADDPS.BCST 16(AX), Z4, Z4
	VADDPS.BCST 20(AX), Z5, Z5
	VADDPS.BCST 24(AX), Z6, Z6
	VADDPS.BCST 28(AX), Z7, Z7

zstore:
	// Transpose the accumulators into the frame tile and copy mr rows out.
	TRANSPOSE4(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11)
	TRANSPOSE4(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)
	STORET(Z0, X0, 0)
	STORET(Z1, X1, 32)
	STORET(Z2, X2, 64)
	STORET(Z3, X3, 96)
	STORET(Z4, X4, 16)
	STORET(Z5, X5, 48)
	STORET(Z6, X6, 80)
	STORET(Z7, X7, 112)
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ mr+48(FP), DX
	MOVQ SP, BX
zcopyout:
	VMOVUPS (BX), Y8
	VMOVUPS Y8, (DI)
	ADDQ $32, BX
	ADDQ R8, DI
	DECQ DX
	JNZ zcopyout
	VZEROUPPER
	RET

// func packA16AVX2(ap, a *float32, lda, kb int)
//
// Each iteration moves four columns of all sixteen rows: Y0–Y3 take rows
// 0–3 in their low halves and 4–7 in their high halves, Y4–Y7 rows 8–11 and
// 12–15, and TRANSPOSE4 turns each group into four panel half-rows.
TEXT ·packA16AVX2(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), DI
	MOVQ a+8(FP), SI // row 0
	MOVQ lda+16(FP), R8
	SHLQ $2, R8 // row stride of A in bytes
	MOVQ kb+24(FP), CX
	SHRQ $2, CX
	LEAQ (R8)(R8*2), R9   // three rows
	LEAQ (SI)(R8*4), R10  // row 4
	LEAQ (R10)(R8*4), R11 // row 8
	LEAQ (R11)(R8*4), R12 // row 12
pack:
	VMOVUPS (SI), X0
	VMOVUPS (SI)(R8*1), X1
	VMOVUPS (SI)(R8*2), X2
	VMOVUPS (SI)(R9*1), X3
	VINSERTF128 $1, (R10), Y0, Y0
	VINSERTF128 $1, (R10)(R8*1), Y1, Y1
	VINSERTF128 $1, (R10)(R8*2), Y2, Y2
	VINSERTF128 $1, (R10)(R9*1), Y3, Y3
	VMOVUPS (R11), X4
	VMOVUPS (R11)(R8*1), X5
	VMOVUPS (R11)(R8*2), X6
	VMOVUPS (R11)(R9*1), X7
	VINSERTF128 $1, (R12), Y4, Y4
	VINSERTF128 $1, (R12)(R8*1), Y5, Y5
	VINSERTF128 $1, (R12)(R8*2), Y6, Y6
	VINSERTF128 $1, (R12)(R9*1), Y7, Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y4, 32(DI)
	VMOVUPS Y1, 64(DI)
	VMOVUPS Y5, 96(DI)
	VMOVUPS Y2, 128(DI)
	VMOVUPS Y6, 160(DI)
	VMOVUPS Y3, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $16, SI
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $256, DI
	DECQ CX
	JNZ pack
	VZEROUPPER
	RET

// func packLanes8AVX2(ap *float32, rows *[8]*float32, kb int)
//
// packA16AVX2's inner step for eight rows that are separate vectors: each
// iteration loads four columns of every row, rows 0–3 into the low halves
// of Y0–Y3 and rows 4–7 into the high halves, and TRANSPOSE4 turns them into
// four 8-lane half-rows of the panel, 64 bytes apart.
TEXT ·packLanes8AVX2(SB), NOSPLIT, $0-24
	MOVQ ap+0(FP), DI
	MOVQ rows+8(FP), AX
	MOVQ kb+16(FP), CX
	SHRQ $2, CX
	MOVQ 0(AX), SI
	MOVQ 8(AX), BX
	MOVQ 16(AX), DX
	MOVQ 24(AX), R8
	MOVQ 32(AX), R9
	MOVQ 40(AX), R10
	MOVQ 48(AX), R11
	MOVQ 56(AX), R12
	XORQ AX, AX // byte offset of the current column in every row
lanespack:
	VMOVUPS (SI)(AX*1), X0
	VMOVUPS (BX)(AX*1), X1
	VMOVUPS (DX)(AX*1), X2
	VMOVUPS (R8)(AX*1), X3
	VINSERTF128 $1, (R9)(AX*1), Y0, Y0
	VINSERTF128 $1, (R10)(AX*1), Y1, Y1
	VINSERTF128 $1, (R11)(AX*1), Y2, Y2
	VINSERTF128 $1, (R12)(AX*1), Y3, Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 64(DI)
	VMOVUPS Y2, 128(DI)
	VMOVUPS Y3, 192(DI)
	ADDQ $16, AX
	ADDQ $256, DI
	DECQ CX
	JNZ lanespack
	VZEROUPPER
	RET
