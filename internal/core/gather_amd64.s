#include "textflag.h"

// func gather16(dst, src, w *float64, n int)
//
// Y0..Y3 hold destination lanes 0-3, 4-7, 8-11 and 12-15. Per source bin
// i: broadcast src[i] into Y4, multiply it by the 16 taps at w (which
// then steps back one tap), and add the four products into the lanes.
// Multiply and add are separate instructions, each rounding, exactly like
// the Go gather; no FMA.
TEXT ·gather16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JLE  store

loop:
	VBROADCASTSD (SI), Y4
	VMULPD (DI), Y4, Y5
	VMULPD 32(DI), Y4, Y6
	VMULPD 64(DI), Y4, Y7
	VMULPD 96(DI), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	SUBQ $8, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
