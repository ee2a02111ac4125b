#include "textflag.h"

// AVX2 bodies of the three quadruple butterflies (kernels.go, mirror.go),
// of their two-state forms, the reverse sweep's (reverse.go), and of the
// two lone butterflies; after them the AVX-512 forms of the first six.
// One YMM register holds two complex128 as [re0, im0, re1, im1], so each
// loop iteration carries two quadruples. Every output is rxMix's expression,
// operation for operation and in its association order:
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
// a11 in Y0..Y3 and leaves the four outputs in Y6..Y9 and the swapped,
// unscaled sums St = [im t, re t], Su = [im u, re u] in Y10, Y11,
// clobbering Y4 and Y5; RXMIX is its second half, for a caller that has
// formed the swapped sums itself.
#define RXMIX \
	VMULPD       Y14, Y10, Y4 /* cm·swap(t) */ \
	VMULPD       Y14, Y11, Y5 /* cm·swap(u) */ \
	VMULPD       Y13, Y0, Y6  /* cc·a00 */ \
	VMULPD       Y13, Y1, Y7  \
	VMULPD       Y13, Y2, Y8  \
	VMULPD       Y13, Y3, Y9  \
	VADDSUBPD    Y4, Y6, Y6   /* cc·a00 ∓ cm·swap(t) */ \
	VADDSUBPD    Y5, Y7, Y7   /* cc·a01 ∓ cm·swap(u) */ \
	VADDSUBPD    Y5, Y8, Y8   /* cc·a10 ∓ cm·swap(u) */ \
	VADDSUBPD    Y4, Y9, Y9   /* cc·a11 ∓ cm·swap(t) */ \
	VMULPD       Y15, Y3, Y4  /* mm·a11 */ \
	VMULPD       Y15, Y2, Y5  /* mm·a10 */ \
	VADDPD       Y4, Y6, Y6   \
	VADDPD       Y5, Y7, Y7   \
	VMULPD       Y15, Y1, Y4  /* mm·a01 */ \
	VMULPD       Y15, Y0, Y5  /* mm·a00 */ \
	VADDPD       Y4, Y8, Y8   \
	VADDPD       Y5, Y9, Y9

#define RXQUAD \
	VADDPD       Y2, Y1, Y10   /* t = a01 + a10 */ \
	VADDPD       Y3, Y0, Y11   /* u = a00 + a11 */ \
	VPERMILPD    $5, Y10, Y10  /* St = [im t, re t] */ \
	VPERMILPD    $5, Y11, Y11  /* Su */ \
	RXMIX

// The two-state bodies un-apply the butterfly from φ and from λ and take
// the ΣX terms of reverse.go in between, where both states' sums are in
// registers anyway. SUMXQUAD runs with λ's quadruples in Y0..Y3 and φ's
// St, Su still in Y10, Y11. Per quadruple the term is sumXQuad's
//
//	imConjMul(lu, t) + imConjMul(lt, u),  imConjMul(a, b) = re a·im b − im a·re b
//
// as VMULPD lu·St = [re lu·im t, im lu·re t] and lt·Su, VHSUBPD (both
// differences: [A₀, B₀, A₁, B₁]) and VHADDPD (A + B per quadruple) — MUL,
// MUL, SUB, ADD, each rounded as the scalar expression rounds. The fold
// over quadruples is reverse.go's, not a lane-wise one: two scalar VADDSD
// into X12, quadruple k before k+1. That dependent chain is 8 cycles per
// iteration next to some 20 of butterfly throughput, so it is free here;
// on its own it would be the bound. SUMXQUAD leaves λ's swapped sums in
// Y10, Y11 for RXMIX and clobbers Y4, Y5.
#define SUMXQUAD \
	VADDPD       Y2, Y1, Y4      /* lt */ \
	VADDPD       Y3, Y0, Y5      /* lu */ \
	VMULPD       Y5, Y10, Y10    /* lu·St */ \
	VMULPD       Y4, Y11, Y11    /* lt·Su */ \
	VHSUBPD      Y11, Y10, Y10   /* [A0, B0, A1, B1] */ \
	VHADDPD      Y10, Y10, Y10   /* [A0+B0, ·, A1+B1, ·] */ \
	VEXTRACTF128 $1, Y10, X11    \
	VADDSD       X10, X12, X12   /* im += A0+B0 */ \
	VADDSD       X11, X12, X12   /* im += A1+B1 */ \
	VPERMILPD    $5, Y4, Y10     \
	VPERMILPD    $5, Y5, Y11

// func rxQuadAVX2(p00, p01, p10, p11 *complex128, run, runs int, cc, cm, mm float64)
//
// runs ≥ 1 runs of run quadruples each, run even and at least 2: run r is
// quadruples [0, run) of the four pointers advanced 4·r·run amplitudes —
// the whole blocks of one pair pass (rxQuadRange), or with runs = 1 four
// equal-length slices.
TEXT ·rxQuadAVX2(SB), NOSPLIT, $0-72
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         run+32(FP), CX
	MOVQ         runs+40(FP), DX
	VBROADCASTSD cc+48(FP), Y13
	VBROADCASTSD cm+56(FP), Y14
	VBROADCASTSD mm+64(FP), Y15
	SHLQ         $4, CX // bytes per run

nextrun:
	XORQ AX, AX

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
	LEAQ    (SI)(CX*4), SI
	LEAQ    (DI)(CX*4), DI
	LEAQ    (R8)(CX*4), R8
	LEAQ    (R9)(CX*4), R9
	DECQ    DX
	JNZ     nextrun
	VZEROUPPER
	RET

// func revQuadAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, run, runs int, cc, cm, mm float64) float64
//
// rxQuadAVX2 on φ (p) and on λ (l), returning the ΣX terms: each run's
// fold starts from +0 in X12 and is added, in run order, to the pass's,
// which waits in BX while a run has every YMM register in use.
TEXT ·revQuadAVX2(SB), NOSPLIT, $0-112
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         l00+32(FP), R10
	MOVQ         l01+40(FP), R11
	MOVQ         l10+48(FP), R12
	MOVQ         l11+56(FP), R13
	MOVQ         run+64(FP), CX
	MOVQ         runs+72(FP), DX
	VBROADCASTSD cc+80(FP), Y13
	VBROADCASTSD cm+88(FP), Y14
	VBROADCASTSD mm+96(FP), Y15
	SHLQ         $4, CX
	XORQ         BX, BX // the pass's sum: +0

revrun:
	VXORPD X12, X12, X12
	XORQ   AX, AX

revquad:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	RXQUAD
	VMOVUPD Y6, (SI)(AX*1)
	VMOVUPD Y7, (DI)(AX*1)
	VMOVUPD Y8, (R8)(AX*1)
	VMOVUPD Y9, (R9)(AX*1)
	VMOVUPD (R10)(AX*1), Y0
	VMOVUPD (R11)(AX*1), Y1
	VMOVUPD (R12)(AX*1), Y2
	VMOVUPD (R13)(AX*1), Y3
	SUMXQUAD
	RXMIX
	VMOVUPD Y6, (R10)(AX*1)
	VMOVUPD Y7, (R11)(AX*1)
	VMOVUPD Y8, (R12)(AX*1)
	VMOVUPD Y9, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     revquad
	VMOVQ   BX, X0
	VADDSD  X12, X0, X0
	VMOVQ   X0, BX
	LEAQ    (SI)(CX*4), SI
	LEAQ    (DI)(CX*4), DI
	LEAQ    (R8)(CX*4), R8
	LEAQ    (R9)(CX*4), R9
	LEAQ    (R10)(CX*4), R10
	LEAQ    (R11)(CX*4), R11
	LEAQ    (R12)(CX*4), R12
	LEAQ    (R13)(CX*4), R13
	DECQ    DX
	JNZ     revrun
	MOVQ    BX, ret+104(FP)
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

// func revQuadMirrorAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, n int, cc, cm, mm float64) float64
//
// rxQuadMirrorAVX2 on φ and on λ, returning the ΣX terms folded from +0.
// The lanes are exchanged before the sums are formed, so lane 0 is the
// lower quadruple and the fold ascends as sumXQuadMirror's.
TEXT ·revQuadMirrorAVX2(SB), NOSPLIT, $0-104
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         l00+32(FP), R10
	MOVQ         l01+40(FP), R11
	MOVQ         l10+48(FP), R12
	MOVQ         l11+56(FP), R13
	MOVQ         n+64(FP), CX
	VBROADCASTSD cc+72(FP), Y13
	VBROADCASTSD cm+80(FP), Y14
	VBROADCASTSD mm+88(FP), Y15
	SHLQ         $4, CX
	XORQ         AX, AX
	LEAQ         -32(CX), BX
	VXORPD       X12, X12, X12

revmirror:
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
	VMOVUPD    (R10)(AX*1), Y0
	VMOVUPD    (R11)(AX*1), Y1
	VMOVUPD    (R12)(BX*1), Y2
	VMOVUPD    (R13)(BX*1), Y3
	VPERM2F128 $1, Y2, Y2, Y2
	VPERM2F128 $1, Y3, Y3, Y3
	SUMXQUAD
	RXMIX
	VPERM2F128 $1, Y8, Y8, Y8
	VPERM2F128 $1, Y9, Y9, Y9
	VMOVUPD    Y6, (R10)(AX*1)
	VMOVUPD    Y7, (R11)(AX*1)
	VMOVUPD    Y8, (R12)(BX*1)
	VMOVUPD    Y9, (R13)(BX*1)
	SUBQ       $32, BX
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        revmirror
	VMOVSD     X12, ret+96(FP)
	VZEROUPPER
	RET

// The low bodies carry one quadruple per iteration, its two halves
// [a00, a01] and [a10, a11] in two registers. With the lanes of each
// half exchanged, [a00, a01] + [a11, a10] is [u, t], and the products
// line up as
//
//	[r00, r01] = cc·[a00, a01] ∓ cm·swap([t, u]) + mm·[a11, a10]
//	[r10, r11] = cc·[a10, a11] ∓ cm·swap([u, t]) + mm·[a01, a00]
//
// LOWLOAD loads the quadruple at ptr into Y0, Y1 with the exchanged
// halves in Y2, Y3 and [u, t] in Y10. LOWMIX takes those and [Su, St] in
// Y10, leaves the outputs in Y6, Y7 and clobbers Y2..Y5; Y10 survives.
#define LOWLOAD(ptr) \
	VMOVUPD    (ptr), Y0          /* [a00, a01] */ \
	VMOVUPD    32(ptr), Y1        /* [a10, a11] */ \
	VPERM2F128 $1, Y1, Y1, Y2     /* [a11, a10] */ \
	VPERM2F128 $1, Y0, Y0, Y3     /* [a01, a00] */ \
	VADDPD     Y2, Y0, Y10        /* [u, t] = [a00 + a11, a01 + a10] */

#define LOWMIX \
	VMULPD     Y14, Y10, Y4       /* cm·[Su, St] */ \
	VPERM2F128 $1, Y4, Y4, Y5     /* cm·[St, Su] */ \
	VMULPD     Y13, Y0, Y6        \
	VMULPD     Y13, Y1, Y7        \
	VADDSUBPD  Y5, Y6, Y6         \
	VADDSUBPD  Y4, Y7, Y7         \
	VMULPD     Y15, Y2, Y2        \
	VMULPD     Y15, Y3, Y3        \
	VADDPD     Y2, Y6, Y6         \
	VADDPD     Y3, Y7, Y7

// func rxQuadLowAVX2(a *complex128, quads int, cc, cm, mm float64)
//
// quads ≥ 1 consecutive groups [a00, a01, a10, a11].
TEXT ·rxQuadLowAVX2(SB), NOSPLIT, $0-40
	MOVQ         a+0(FP), SI
	MOVQ         quads+8(FP), CX
	VBROADCASTSD cc+16(FP), Y13
	VBROADCASTSD cm+24(FP), Y14
	VBROADCASTSD mm+32(FP), Y15

low:
	LOWLOAD(SI)
	VPERMILPD $5, Y10, Y10
	LOWMIX
	VMOVUPD   Y6, (SI)
	VMOVUPD   Y7, 32(SI)
	ADDQ      $64, SI
	DECQ      CX
	JNZ       low
	VZEROUPPER
	RET

// func revQuadLowAVX2(p, l *complex128, quads int, cc, cm, mm float64) float64
//
// rxQuadLowAVX2 on φ and on λ, returning the ΣX terms folded from +0.
// [lu, lt] meets φ's swapped sums with their halves exchanged, [St, Su];
// VHSUBPD leaves A and B in the two halves, and A + B is one scalar add
// before the one into the fold.
TEXT ·revQuadLowAVX2(SB), NOSPLIT, $0-56
	MOVQ         p+0(FP), SI
	MOVQ         l+8(FP), DI
	MOVQ         quads+16(FP), CX
	VBROADCASTSD cc+24(FP), Y13
	VBROADCASTSD cm+32(FP), Y14
	VBROADCASTSD mm+40(FP), Y15
	VXORPD       X12, X12, X12

revlow:
	LOWLOAD(SI)
	VPERMILPD    $5, Y10, Y10
	LOWMIX
	VMOVUPD      Y6, (SI)
	VMOVUPD      Y7, 32(SI)
	VPERM2F128   $1, Y10, Y10, Y11 // [St, Su]
	LOWLOAD(DI)
	VMULPD       Y10, Y11, Y11     // [lu·St, lt·Su]
	VHSUBPD      Y11, Y11, Y11     // [A, A, B, B]
	VEXTRACTF128 $1, Y11, X4
	VADDSD       X4, X11, X11      // A + B
	VADDSD       X11, X12, X12     // im += A + B
	VPERMILPD    $5, Y10, Y10
	LOWMIX
	VMOVUPD      Y6, (DI)
	VMOVUPD      Y7, 32(DI)
	ADDQ         $64, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          revlow
	VMOVSD       X12, ret+48(FP)
	VZEROUPPER
	RET

// The lone butterflies (kernels.go, mirror.go): rxDuo's
//
//	p0 = complex(c·re x + s·im y, c·im x − s·re y)
//	p1 = complex(c·re y + s·im x, c·im y − s·re x)
//
// for a pair (x, y), two pairs per register. Each output is c·x plus the
// product of [s, −s] and the swapped partner, [im y, re y]: the
// subtraction becomes an add of a sign-masked product, and x − p and
// x + (−p) round alike, so VMULPD, VMULPD, VADDPD give the Go body's
// bits. Y13 holds c broadcast and Y14 [s, −s, s, −s]; DUO takes x, y in
// Y0, Y1 and leaves the outputs in Y2, Y3, clobbering Y4, Y5.
DATA duoSign<>+0(SB)/8, $0
DATA duoSign<>+8(SB)/8, $0x8000000000000000
DATA duoSign<>+16(SB)/8, $0
DATA duoSign<>+24(SB)/8, $0x8000000000000000
GLOBL duoSign<>(SB), RODATA|NOPTR, $32

#define DUOCOEF \
	VBROADCASTSD c+24(FP), Y13 \
	VBROADCASTSD s+32(FP), Y14 \
	VXORPD       duoSign<>(SB), Y14, Y14

#define DUO \
	VPERMILPD $5, Y1, Y4  /* [im y, re y] */ \
	VPERMILPD $5, Y0, Y5  /* [im x, re x] */ \
	VMULPD    Y14, Y4, Y4 /* [s·im y, −s·re y] */ \
	VMULPD    Y14, Y5, Y5 \
	VMULPD    Y13, Y0, Y2 /* c·x */ \
	VMULPD    Y13, Y1, Y3 /* c·y */ \
	VADDPD    Y4, Y2, Y2  \
	VADDPD    Y5, Y3, Y3

// func rxDuoAVX2(p0, p1 *complex128, n int, c, s float64)
//
// n ≥ 2 pairs (p0[k], p1[k]), n even.
TEXT ·rxDuoAVX2(SB), NOSPLIT, $0-40
	MOVQ p0+0(FP), SI
	MOVQ p1+8(FP), DI
	MOVQ n+16(FP), CX
	DUOCOEF
	SHLQ $4, CX
	XORQ AX, AX

duo:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	DUO
	VMOVUPD Y2, (SI)(AX*1)
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     duo
	VZEROUPPER
	RET

// func rxDuoMirrorAVX2(p0, p1 *complex128, n int, c, s float64)
//
// n ≥ 2 pairs (p0[k], p1[n−1−k]), n even: the descending partners are
// loaded from their lower address and their 128-bit lanes exchanged, on
// the way in and on the way out, as in rxQuadMirrorAVX2.
TEXT ·rxDuoMirrorAVX2(SB), NOSPLIT, $0-40
	MOVQ p0+0(FP), SI
	MOVQ p1+8(FP), DI
	MOVQ n+16(FP), CX
	DUOCOEF
	SHLQ $4, CX
	XORQ AX, AX         // ascending byte offset
	LEAQ -32(CX), BX    // descending byte offset: elements n−2, n−1

duomirror:
	VMOVUPD    (SI)(AX*1), Y0
	VMOVUPD    (DI)(BX*1), Y1
	VPERM2F128 $1, Y1, Y1, Y1
	DUO
	VPERM2F128 $1, Y3, Y3, Y3
	VMOVUPD    Y2, (SI)(AX*1)
	VMOVUPD    Y3, (DI)(BX*1)
	SUBQ       $32, BX
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        duomirror
	VZEROUPPER
	RET

// AVX-512 forms of the quadruple butterflies and their two-state forms.
// One ZMM register holds four complex128, so each iteration of the
// strided and mirror bodies carries four quadruples, and the low bodies
// hold one quadruple per register. The operations are the AVX2 bodies',
// in the same order, with one exception: AVX-512 has no VADDSUBPD. Z14
// holds cm with its even lanes negated, [−cm, cm, …], and the mix adds
// that product: (−cm)·x is −(cm·x) exactly, and x − p and x + (−p) round
// alike (as in DUO), so each lane gets the bits the Y bodies give it.
// Z13 and Z15 hold cc and mm broadcast. Only AVX512F is used; the
// bitwise ops are its VPXORQ, and VEXTRACTF32X4 moves two doubles.
DATA evenSign<>+0(SB)/8, $0x8000000000000000
DATA evenSign<>+8(SB)/8, $0
DATA evenSign<>+16(SB)/8, $0x8000000000000000
DATA evenSign<>+24(SB)/8, $0
DATA evenSign<>+32(SB)/8, $0x8000000000000000
DATA evenSign<>+40(SB)/8, $0
DATA evenSign<>+48(SB)/8, $0x8000000000000000
DATA evenSign<>+56(SB)/8, $0
GLOBL evenSign<>(SB), RODATA|NOPTR, $64

// RXMIXZ and RXQUADZ are RXMIX and RXQUAD on Z registers: a00, a01,
// a10, a11 in Z0..Z3, the four outputs in Z6..Z9, the swapped sums St,
// Su in Z10, Z11; Z4 and Z5 are clobbered.
#define RXMIXZ \
	VMULPD Z14, Z10, Z4 /* [−cm, cm]·swap(t) */ \
	VMULPD Z14, Z11, Z5 \
	VMULPD Z13, Z0, Z6  \
	VMULPD Z13, Z1, Z7  \
	VMULPD Z13, Z2, Z8  \
	VMULPD Z13, Z3, Z9  \
	VADDPD Z4, Z6, Z6   /* cc·a00 ∓ cm·swap(t) */ \
	VADDPD Z5, Z7, Z7   \
	VADDPD Z5, Z8, Z8   \
	VADDPD Z4, Z9, Z9   \
	VMULPD Z15, Z3, Z4  \
	VMULPD Z15, Z2, Z5  \
	VADDPD Z4, Z6, Z6   \
	VADDPD Z5, Z7, Z7   \
	VMULPD Z15, Z1, Z4  \
	VMULPD Z15, Z0, Z5  \
	VADDPD Z4, Z8, Z8   \
	VADDPD Z5, Z9, Z9

#define RXQUADZ \
	VADDPD    Z2, Z1, Z10 /* t */ \
	VADDPD    Z3, Z0, Z11 /* u */ \
	VPERMILPD $0x55, Z10, Z10 \
	VPERMILPD $0x55, Z11, Z11 \
	RXMIXZ

// SUMXQUADZ is SUMXQUAD for four quadruples. AVX-512 has no VHSUBPD or
// VHADDPD: the products are subtracted from their re/im-swapped selves,
// which leaves A and B in the even lanes, and added there. Each lane's
// A + B is the scalar expression's MUL, MUL, SUB, ADD; the four are
// folded into X12 by scalar adds, quadruple k before k+1.
#define SUMXQUADZ \
	VADDPD        Z2, Z1, Z4      /* lt */ \
	VADDPD        Z3, Z0, Z5      /* lu */ \
	VMULPD        Z5, Z10, Z10    /* lu·St */ \
	VMULPD        Z4, Z11, Z11    /* lt·Su */ \
	VPERMILPD     $0x55, Z10, Z16 \
	VPERMILPD     $0x55, Z11, Z17 \
	VSUBPD        Z16, Z10, Z10   /* A in the even lanes */ \
	VSUBPD        Z17, Z11, Z11   /* B */ \
	VADDPD        Z11, Z10, Z10   /* A + B */ \
	VEXTRACTF32X4 $1, Z10, X16    \
	VEXTRACTF32X4 $2, Z10, X17    \
	VEXTRACTF32X4 $3, Z10, X18    \
	VADDSD        X10, X12, X12   \
	VADDSD        X16, X12, X12   \
	VADDSD        X17, X12, X12   \
	VADDSD        X18, X12, X12   \
	VPERMILPD     $0x55, Z4, Z10  \
	VPERMILPD     $0x55, Z5, Z11

// func rxQuadAVX512(p00, p01, p10, p11 *complex128, run, runs int, cc, cm, mm float64)
//
// rxQuadAVX2 with run a multiple of 4 and at least 4.
TEXT ·rxQuadAVX512(SB), NOSPLIT, $0-72
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         run+32(FP), CX
	MOVQ         runs+40(FP), DX
	VBROADCASTSD cc+48(FP), Z13
	VBROADCASTSD cm+56(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+64(FP), Z15
	SHLQ         $4, CX

znextrun:
	XORQ AX, AX

zquad:
	VMOVUPD (SI)(AX*1), Z0
	VMOVUPD (DI)(AX*1), Z1
	VMOVUPD (R8)(AX*1), Z2
	VMOVUPD (R9)(AX*1), Z3
	RXQUADZ
	VMOVUPD Z6, (SI)(AX*1)
	VMOVUPD Z7, (DI)(AX*1)
	VMOVUPD Z8, (R8)(AX*1)
	VMOVUPD Z9, (R9)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     zquad
	LEAQ    (SI)(CX*4), SI
	LEAQ    (DI)(CX*4), DI
	LEAQ    (R8)(CX*4), R8
	LEAQ    (R9)(CX*4), R9
	DECQ    DX
	JNZ     znextrun
	VZEROUPPER
	RET

// func revQuadAVX512(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, run, runs int, cc, cm, mm float64) float64
//
// revQuadAVX2 with run a multiple of 4 and at least 4.
TEXT ·revQuadAVX512(SB), NOSPLIT, $0-112
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         l00+32(FP), R10
	MOVQ         l01+40(FP), R11
	MOVQ         l10+48(FP), R12
	MOVQ         l11+56(FP), R13
	MOVQ         run+64(FP), CX
	MOVQ         runs+72(FP), DX
	VBROADCASTSD cc+80(FP), Z13
	VBROADCASTSD cm+88(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+96(FP), Z15
	SHLQ         $4, CX
	VPXORQ       Z19, Z19, Z19 // the pass's sum: +0

zrevrun:
	VXORPD X12, X12, X12
	XORQ   AX, AX

zrevquad:
	VMOVUPD (SI)(AX*1), Z0
	VMOVUPD (DI)(AX*1), Z1
	VMOVUPD (R8)(AX*1), Z2
	VMOVUPD (R9)(AX*1), Z3
	RXQUADZ
	VMOVUPD Z6, (SI)(AX*1)
	VMOVUPD Z7, (DI)(AX*1)
	VMOVUPD Z8, (R8)(AX*1)
	VMOVUPD Z9, (R9)(AX*1)
	VMOVUPD (R10)(AX*1), Z0
	VMOVUPD (R11)(AX*1), Z1
	VMOVUPD (R12)(AX*1), Z2
	VMOVUPD (R13)(AX*1), Z3
	SUMXQUADZ
	RXMIXZ
	VMOVUPD Z6, (R10)(AX*1)
	VMOVUPD Z7, (R11)(AX*1)
	VMOVUPD Z8, (R12)(AX*1)
	VMOVUPD Z9, (R13)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     zrevquad
	VADDSD  X12, X19, X19
	LEAQ    (SI)(CX*4), SI
	LEAQ    (DI)(CX*4), DI
	LEAQ    (R8)(CX*4), R8
	LEAQ    (R9)(CX*4), R9
	LEAQ    (R10)(CX*4), R10
	LEAQ    (R11)(CX*4), R11
	LEAQ    (R12)(CX*4), R12
	LEAQ    (R13)(CX*4), R13
	DECQ    DX
	JNZ     zrevrun
	VMOVSD  X19, ret+104(FP)
	VZEROUPPER
	RET

// func rxQuadMirrorAVX512(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)
//
// rxQuadMirrorAVX2 with n a multiple of 4 and at least 4: the
// descending four are loaded from their lowest address and their 128-bit
// lanes reversed, on the way in and on the way out.
TEXT ·rxQuadMirrorAVX512(SB), NOSPLIT, $0-64
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD cc+40(FP), Z13
	VBROADCASTSD cm+48(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+56(FP), Z15
	SHLQ         $4, CX
	XORQ         AX, AX
	LEAQ         -64(CX), BX // elements n−4 … n−1

zmirror:
	VMOVUPD    (SI)(AX*1), Z0
	VMOVUPD    (DI)(AX*1), Z1
	VMOVUPD    (R8)(BX*1), Z2
	VMOVUPD    (R9)(BX*1), Z3
	VSHUFF64X2 $0x1B, Z2, Z2, Z2
	VSHUFF64X2 $0x1B, Z3, Z3, Z3
	RXQUADZ
	VSHUFF64X2 $0x1B, Z8, Z8, Z8
	VSHUFF64X2 $0x1B, Z9, Z9, Z9
	VMOVUPD    Z6, (SI)(AX*1)
	VMOVUPD    Z7, (DI)(AX*1)
	VMOVUPD    Z8, (R8)(BX*1)
	VMOVUPD    Z9, (R9)(BX*1)
	SUBQ       $64, BX
	ADDQ       $64, AX
	CMPQ       AX, CX
	JLT        zmirror
	VZEROUPPER
	RET

// func revQuadMirrorAVX512(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, n int, cc, cm, mm float64) float64
//
// revQuadMirrorAVX2 with n a multiple of 4 and at least 4; the lanes are
// reversed before the sums are formed, so the fold ascends.
TEXT ·revQuadMirrorAVX512(SB), NOSPLIT, $0-104
	MOVQ         p00+0(FP), SI
	MOVQ         p01+8(FP), DI
	MOVQ         p10+16(FP), R8
	MOVQ         p11+24(FP), R9
	MOVQ         l00+32(FP), R10
	MOVQ         l01+40(FP), R11
	MOVQ         l10+48(FP), R12
	MOVQ         l11+56(FP), R13
	MOVQ         n+64(FP), CX
	VBROADCASTSD cc+72(FP), Z13
	VBROADCASTSD cm+80(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+88(FP), Z15
	SHLQ         $4, CX
	XORQ         AX, AX
	LEAQ         -64(CX), BX
	VXORPD       X12, X12, X12

zrevmirror:
	VMOVUPD    (SI)(AX*1), Z0
	VMOVUPD    (DI)(AX*1), Z1
	VMOVUPD    (R8)(BX*1), Z2
	VMOVUPD    (R9)(BX*1), Z3
	VSHUFF64X2 $0x1B, Z2, Z2, Z2
	VSHUFF64X2 $0x1B, Z3, Z3, Z3
	RXQUADZ
	VSHUFF64X2 $0x1B, Z8, Z8, Z8
	VSHUFF64X2 $0x1B, Z9, Z9, Z9
	VMOVUPD    Z6, (SI)(AX*1)
	VMOVUPD    Z7, (DI)(AX*1)
	VMOVUPD    Z8, (R8)(BX*1)
	VMOVUPD    Z9, (R9)(BX*1)
	VMOVUPD    (R10)(AX*1), Z0
	VMOVUPD    (R11)(AX*1), Z1
	VMOVUPD    (R12)(BX*1), Z2
	VMOVUPD    (R13)(BX*1), Z3
	VSHUFF64X2 $0x1B, Z2, Z2, Z2
	VSHUFF64X2 $0x1B, Z3, Z3, Z3
	SUMXQUADZ
	RXMIXZ
	VSHUFF64X2 $0x1B, Z8, Z8, Z8
	VSHUFF64X2 $0x1B, Z9, Z9, Z9
	VMOVUPD    Z6, (R10)(AX*1)
	VMOVUPD    Z7, (R11)(AX*1)
	VMOVUPD    Z8, (R12)(BX*1)
	VMOVUPD    Z9, (R13)(BX*1)
	SUBQ       $64, BX
	ADDQ       $64, AX
	CMPQ       AX, CX
	JLT        zrevmirror
	VMOVSD     X12, ret+96(FP)
	VZEROUPPER
	RET

// The low bodies hold one quadruple [a00, a01, a10, a11] per register.
// Its 128-bit lanes reversed, [a11, a10, a01, a00], are the mm terms, and
// added to it give [u, t, t, u]; exchanging the lanes of each half gives
// [t, u, u, t], the sum each output's cm term takes:
//
//	r = cc·a ∓ cm·swap([t, u, u, t]) + mm·[a11, a10, a01, a00]
//
// LOWSUMZ loads the quadruple at ptr into Z0, its reversal into Z1 and
// [u, t, t, u] into Z2; LOWSWAPZ turns Z2 into the swapped [St, Su, Su,
// St] in Z10, one VPERMPD by the qword indices lowSwap in Z20; LOWMIXZ
// leaves the outputs in Z6 and clobbers Z4, Z5.
DATA lowSwap<>+0(SB)/8, $3
DATA lowSwap<>+8(SB)/8, $2
DATA lowSwap<>+16(SB)/8, $1
DATA lowSwap<>+24(SB)/8, $0
DATA lowSwap<>+32(SB)/8, $1
DATA lowSwap<>+40(SB)/8, $0
DATA lowSwap<>+48(SB)/8, $3
DATA lowSwap<>+56(SB)/8, $2
GLOBL lowSwap<>(SB), RODATA|NOPTR, $64

#define LOWSUMZ(ptr) \
	VMOVUPD    (ptr), Z0          \
	VSHUFF64X2 $0x1B, Z0, Z0, Z1  \
	VADDPD     Z1, Z0, Z2

#define LOWSWAPZ \
	VPERMPD Z2, Z20, Z10

#define LOWMIXZ \
	VMULPD Z14, Z10, Z4 \
	VMULPD Z13, Z0, Z6  \
	VADDPD Z4, Z6, Z6   \
	VMULPD Z15, Z1, Z5  \
	VADDPD Z5, Z6, Z6

// func rxQuadLowAVX512(a *complex128, quads int, cc, cm, mm float64)
//
// quads ≥ 1 consecutive groups [a00, a01, a10, a11].
TEXT ·rxQuadLowAVX512(SB), NOSPLIT, $0-40
	MOVQ         a+0(FP), SI
	MOVQ         quads+8(FP), CX
	VBROADCASTSD cc+16(FP), Z13
	VBROADCASTSD cm+24(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+32(FP), Z15
	VMOVDQU64    lowSwap<>(SB), Z20

zlow:
	LOWSUMZ(SI)
	LOWSWAPZ
	LOWMIXZ
	VMOVUPD Z6, (SI)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     zlow
	VZEROUPPER
	RET

// func revQuadLowAVX512(p, l *complex128, quads int, cc, cm, mm float64) float64
//
// rxQuadLowAVX512 on φ and on λ, returning the ΣX terms folded from +0.
// λ's [lu, lt, lt, lu] times φ's [St, Su, Su, St] is [lu·St, lt·Su, …]:
// subtracted from its swapped self it holds A in lane 0 and B in lane 2,
// and A + B is one scalar add before the one into the fold.
TEXT ·revQuadLowAVX512(SB), NOSPLIT, $0-56
	MOVQ         p+0(FP), SI
	MOVQ         l+8(FP), DI
	MOVQ         quads+16(FP), CX
	VBROADCASTSD cc+24(FP), Z13
	VBROADCASTSD cm+32(FP), Z14
	VPXORQ       evenSign<>(SB), Z14, Z14
	VBROADCASTSD mm+40(FP), Z15
	VMOVDQU64    lowSwap<>(SB), Z20
	VXORPD       X12, X12, X12

zrevlow:
	LOWSUMZ(SI)
	LOWSWAPZ
	LOWMIXZ
	VMOVUPD       Z6, (SI)
	VMOVAPD       Z10, Z11           // φ's [St, Su, Su, St]
	LOWSUMZ(DI)
	VMULPD        Z2, Z11, Z11       // [lu·St, lt·Su, lt·Su, lu·St]
	VPERMILPD     $0x55, Z11, Z16
	VSUBPD        Z16, Z11, Z11      // A in lane 0, B in lane 2
	VEXTRACTF32X4 $1, Z11, X16
	VADDSD        X16, X11, X11      // A + B
	VADDSD        X11, X12, X12      // im += A + B
	LOWSWAPZ
	LOWMIXZ
	VMOVUPD       Z6, (DI)
	ADDQ          $64, SI
	ADDQ          $64, DI
	DECQ          CX
	JNZ           zrevlow
	VMOVSD        X12, ret+48(FP)
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
