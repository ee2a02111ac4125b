#include "textflag.h"

// AVX2 bodies of the three quadruple butterflies (kernels.go, mirror.go).
// One YMM register holds two complex128 as [re0, im0, re1, im1], so each
// loop iteration carries two quadruples. Every output is rxMix's
// expression, operation for operation and in its association order:
//
//	re = (cc·re(a) − cm·im(t)) + mm·re(b)
//	im = (cc·im(a) + cm·re(t)) + mm·im(b)
//
// VMULPD by cc, VMULPD of the re/im-swapped t by cm, VADDSUBPD (subtract
// in the even lanes, add in the odd ones), VMULPD by mm, VADDPD. Each is
// one IEEE operation per lane, rounded as the scalar MULSD/ADDSD/SUBSD of
// the Go bodies round; nothing is fused or reassociated, so the results
// are the Go bodies' bit for bit.
//
// Y13, Y14, Y15 hold cc, cm, mm broadcast. RXQUAD takes a00, a01, a10,
// a11 in Y0..Y3 and leaves the four outputs in Y6..Y9, clobbering Y0 and
// Y4..Y12.
#define RXQUAD \
	VADDPD       Y2, Y1, Y4   /* t = a01 + a10 */ \
	VADDPD       Y3, Y0, Y5   /* u = a00 + a11 */ \
	VPERMILPD    $5, Y4, Y4   /* [im t, re t] */ \
	VPERMILPD    $5, Y5, Y5   \
	VMULPD       Y14, Y4, Y4  /* cm·swap(t) */ \
	VMULPD       Y14, Y5, Y5  /* cm·swap(u) */ \
	VMULPD       Y13, Y0, Y6  /* cc·a00 */ \
	VMULPD       Y13, Y1, Y7  \
	VMULPD       Y13, Y2, Y8  \
	VMULPD       Y13, Y3, Y9  \
	VADDSUBPD    Y4, Y6, Y6   /* cc·a00 ∓ cm·swap(t) */ \
	VADDSUBPD    Y5, Y7, Y7   /* cc·a01 ∓ cm·swap(u) */ \
	VADDSUBPD    Y5, Y8, Y8   /* cc·a10 ∓ cm·swap(u) */ \
	VADDSUBPD    Y4, Y9, Y9   /* cc·a11 ∓ cm·swap(t) */ \
	VMULPD       Y15, Y3, Y10 /* mm·a11 */ \
	VMULPD       Y15, Y2, Y11 /* mm·a10 */ \
	VMULPD       Y15, Y1, Y12 /* mm·a01 */ \
	VMULPD       Y15, Y0, Y0  /* mm·a00 */ \
	VADDPD       Y10, Y6, Y6  \
	VADDPD       Y11, Y7, Y7  \
	VADDPD       Y12, Y8, Y8  \
	VADDPD       Y0, Y9, Y9

// func rxQuadAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)
//
// n is even and at least 2: quadruples [0, n) of four equal-length runs.
TEXT ·rxQuadAVX2(SB), NOSPLIT, $0-64
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD cc+40(FP), Y13
	VBROADCASTSD cm+48(FP), Y14
	VBROADCASTSD mm+56(FP), Y15
	SHLQ         $4, CX // bytes per run
	XORQ         AX, AX

quad:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	RXQUAD
	VMOVUPD Y6, (SI)(AX*1)
	VMOVUPD Y7, (DI)(AX*1)
	VMOVUPD Y8, (R8)(AX*1)
	VMOVUPD Y9, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     quad
	VZEROUPPER
	RET

// func rxQuadMirrorAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)
//
// n is even and at least 2: quadruple k is (p00[k], p01[k], p10[n−1−k],
// p11[n−1−k]). The descending pair is loaded from its lower address and
// its two 128-bit lanes are exchanged, on the way in and on the way out.
TEXT ·rxQuadMirrorAVX2(SB), NOSPLIT, $0-64
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD cc+40(FP), Y13
	VBROADCASTSD cm+48(FP), Y14
	VBROADCASTSD mm+56(FP), Y15
	SHLQ         $4, CX
	XORQ         AX, AX      // ascending byte offset
	LEAQ         -32(CX), BX // descending byte offset: elements n−2, n−1

mirror:
	VMOVUPD    (SI)(AX*1), Y0
	VMOVUPD    (DI)(AX*1), Y1
	VMOVUPD    (R8)(BX*1), Y2
	VMOVUPD    (R9)(BX*1), Y3
	VPERM2F128 $1, Y2, Y2, Y2
	VPERM2F128 $1, Y3, Y3, Y3
	RXQUAD
	VPERM2F128 $1, Y8, Y8, Y8
	VPERM2F128 $1, Y9, Y9, Y9
	VMOVUPD    Y6, (SI)(AX*1)
	VMOVUPD    Y7, (DI)(AX*1)
	VMOVUPD    Y8, (R8)(BX*1)
	VMOVUPD    Y9, (R9)(BX*1)
	SUBQ       $32, BX
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        mirror
	VZEROUPPER
	RET

// func rxQuadLowAVX2(a *complex128, quads int, cc, cm, mm float64)
//
// quads ≥ 1 consecutive groups [a00, a01, a10, a11]: one quadruple per
// iteration, its two halves in two registers. With the lanes of each
// half exchanged, [a00, a01] + [a11, a10] is [u, t], and the products
// line up as
//
//	[r00, r01] = cc·[a00, a01] ∓ cm·swap([t, u]) + mm·[a11, a10]
//	[r10, r11] = cc·[a10, a11] ∓ cm·swap([u, t]) + mm·[a01, a00]
TEXT ·rxQuadLowAVX2(SB), NOSPLIT, $0-40
	MOVQ         a+0(FP), SI
	MOVQ         quads+8(FP), CX
	VBROADCASTSD cc+16(FP), Y13
	VBROADCASTSD cm+24(FP), Y14
	VBROADCASTSD mm+32(FP), Y15

low:
	VMOVUPD    (SI), Y0           // [a00, a01]
	VMOVUPD    32(SI), Y1         // [a10, a11]
	VPERM2F128 $1, Y1, Y1, Y2     // [a11, a10]
	VPERM2F128 $1, Y0, Y0, Y3     // [a01, a00]
	VADDPD     Y2, Y0, Y4         // [u, t] = [a00 + a11, a01 + a10]
	VPERMILPD  $5, Y4, Y4
	VMULPD     Y14, Y4, Y4        // cm·swap([u, t])
	VPERM2F128 $1, Y4, Y4, Y5     // cm·swap([t, u])
	VMULPD     Y13, Y0, Y6
	VMULPD     Y13, Y1, Y7
	VADDSUBPD  Y5, Y6, Y6
	VADDSUBPD  Y4, Y7, Y7
	VMULPD     Y15, Y2, Y2
	VMULPD     Y15, Y3, Y3
	VADDPD     Y2, Y6, Y6
	VADDPD     Y3, Y7, Y7
	VMOVUPD    Y6, (SI)
	VMOVUPD    Y7, 32(SI)
	ADDQ       $64, SI
	DECQ       CX
	JNZ        low
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0. The caller has checked OSXSAVE; without it the instruction
// faults.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
