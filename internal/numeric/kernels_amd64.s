//go:build !purego

#include "textflag.h"

// SSE2 forms of the elementwise loops in kernels_generic.go. Each output
// element gets the same IEEE single-precision operations, in the same
// order and with the same operand roles, as the Go loop: the packed
// instructions only do four of them at once. There is no horizontal
// reduction, no reassociation and no fused multiply-add. The element
// being updated is always the destination operand, so a NaN computed
// from two NaNs carries its payload.

// func addTo(dst, src []float32)
TEXT ·addTo(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	CMPQ CX, $8
	JB   addtail

add8:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JAE    add8

addtail:
	TESTQ CX, CX
	JZ    adddone

add1:
	MOVSS (DI), X0
	ADDSS (SI), X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JNZ   add1

adddone:
	RET

// func scaleClamp(row, f []float32, lo, hi float32)
//
// MAXPS/MINPS return their source operand when the comparison is false
// or unordered, so with the bound as the destination
//
//	max(lo, v) = lo > v ? lo : v    min(hi, v) = hi < v ? hi : v
//
// which is the Go loop's `if v < lo {v = lo} else if v > hi {v = hi}`
// for every v, NaN and -0 included, whenever lo <= hi.
TEXT ·scaleClamp(SB), NOSPLIT, $0-56
	MOVQ   row_base+0(FP), DI
	MOVQ   row_len+8(FP), CX
	MOVQ   f_base+24(FP), SI
	MOVSS  lo+48(FP), X6
	SHUFPS $0, X6, X6
	MOVSS  hi+52(FP), X7
	SHUFPS $0, X7, X7
	CMPQ   CX, $8
	JB     scaletail

scale8:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	MULPS  X2, X0
	MULPS  X3, X1
	MOVAPS X6, X2
	MOVAPS X6, X3
	MAXPS  X0, X2
	MAXPS  X1, X3
	MOVAPS X7, X0
	MOVAPS X7, X1
	MINPS  X2, X0
	MINPS  X3, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JAE    scale8

scaletail:
	TESTQ CX, CX
	JZ    scaledone

scale1:
	MOVSS  (DI), X0
	MULSS  (SI), X0
	MOVAPS X6, X2
	MAXSS  X0, X2
	MOVAPS X7, X1
	MINSS  X2, X1
	MOVSS  X1, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JNZ    scale1

scaledone:
	RET
