#include "textflag.h"

// AVX2 bodies of the phase separator's two loops (kernels.go): the factor
// table PhaseFactors fills once per stage, and the indexed multiply
// mulIndexedRange applies per chunk. Like the butterflies in rx_amd64.s
// they repeat their Go twins operation for operation, each lane rounded as
// the scalar MULSD/ADDSD/SUBSD round, with no FMA, so they return the Go
// bodies' bits.

// CONST4 defines a 32-byte read-only constant: one float64 bit pattern in
// all four lanes, for use as a VEX memory operand.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, bits \
	DATA name<>+8(SB)/8, bits \
	DATA name<>+16(SB)/8, bits \
	DATA name<>+24(SB)/8, bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(phaseAbs, $0x7fffffffffffffff)
CONST4(phaseSign, $0x8000000000000000)
CONST4(phaseTwo29, $0x41c0000000000000)      // 2²⁹, math's reduceThreshold
CONST4(phaseFourOverPi, $0x3ff45f306dc9c883) // 4/π
CONST4(phasePI4A, $0x3fe921fb40000000)       // π/4 in three parts, as math.Sincos
CONST4(phasePI4B, $0x3e64442d00000000)
CONST4(phasePI4C, $0x3ce8469898cc5170)
CONST4(phaseOne, $0x3ff0000000000000)
CONST4(phaseHalf, $0x3fe0000000000000)
CONST4(phaseOnes32, $0x0000000100000001)     // int32 1 in every lane
CONST4(phaseSin0, $0x3de5d8fd1fd19ccd)       // math's _sin[0..5]
CONST4(phaseSin1, $0xbe5ae5e5a9291f5d)
CONST4(phaseSin2, $0x3ec71de3567d48a1)
CONST4(phaseSin3, $0xbf2a01a019bfdf03)
CONST4(phaseSin4, $0x3f8111111110f7d0)
CONST4(phaseSin5, $0xbfc5555555555548)
CONST4(phaseCos0, $0xbda8fa49a0861a9b)       // math's _cos[0..5]
CONST4(phaseCos1, $0x3e21ee9d7b4e3f05)
CONST4(phaseCos2, $0xbe927e4f7eac4bc6)
CONST4(phaseCos3, $0x3efa01a019c844f5)
CONST4(phaseCos4, $0xbf56c16c16c14f91)
CONST4(phaseCos5, $0x3fa555555555554b)

// func phaseFactorsAVX2(factors *complex128, gens *float64, n int, gamma, sign float64) int
//
// n ≥ 4 generators h; factor j is complex(cos x, sign·sin x), x = γ·h,
// with math.Sincos's algorithm on four angles per register:
//
//	j = trunc(|x|·4/π), j += j&1, y = float(j)
//	z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C
//	cos = (1 − 0.5·zz) + (zz·zz)·Pc(zz),  sin = z + (z·zz)·Ps(zz)
//
// with Pc and Ps the Horner chains of _cos and _sin in Go's association
// order. j is even, so of math.Sincos's octant logic what remains is: j&2
// swaps sin and cos, j&4 negates sin, j&4 xor j&2 negates cos, and a
// negative x negates sin. math.Sincos's special case for ±0, (±0, 1), is
// what these steps give ±0 anyway (z = +0, cos = 1 + 0·Pc, sin = +0 +
// (+0)·Ps, then x's sign). NaN, ±Inf and |x| ≥ 2²⁹ it treats apart: a
// group holding one stops the body, which returns how many leading
// factors it wrote, and leaves that group to Go. When n is not a multiple
// of four the last group is the last four generators, overlapping factors
// already written with the same bits.
TEXT ·phaseFactorsAVX2(SB), NOSPLIT, $0-48
	MOVQ         factors+0(FP), R12
	MOVQ         gens+8(FP), R11
	MOVQ         n+16(FP), CX
	VBROADCASTSD gamma+24(FP), Y15
	VBROADCASTSD sign+32(FP), Y14
	VMOVUPD      phaseOne<>(SB), Y13
	LEAQ         -4(CX), R8               // start of the last four
	XORQ         AX, AX                   // leading factors written

next:
	MOVQ AX, BX                           // the group's first generator
	CMPQ AX, R8
	JLE  group
	CMPQ AX, CX
	JEQ  done
	MOVQ R8, BX                           // a tail: the last four

group:
	LEAQ      (R11)(BX*8), SI
	MOVQ      BX, DI
	SHLQ      $4, DI
	ADDQ      R12, DI
	VMOVUPD   (SI), Y0
	VMULPD    Y15, Y0, Y0                 // x = γ·h
	VANDPD    phaseAbs<>(SB), Y0, Y1      // |x|
	VCMPPD    $0x11, phaseTwo29<>(SB), Y1, Y2 // |x| < 2²⁹: false for NaN
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       done

	VMULPD      phaseFourOverPi<>(SB), Y1, Y2
	VCVTTPD2DQY Y2, X2                    // j, truncated: < 2³¹
	VPAND       phaseOnes32<>(SB), X2, X3
	VPADDD      X3, X2, X2                // j += j&1
	VCVTDQ2PD   X2, Y3                    // y
	VPMOVSXDQ   X2, Y2                    // j in 64-bit lanes
	VMULPD      phasePI4A<>(SB), Y3, Y4
	VSUBPD      Y4, Y1, Y4
	VMULPD      phasePI4B<>(SB), Y3, Y5
	VSUBPD      Y5, Y4, Y4
	VMULPD      phasePI4C<>(SB), Y3, Y5
	VSUBPD      Y5, Y4, Y4                // z

	VPSLLQ $62, Y2, Y3                    // sign bit = j&2: the swap mask
	VPSLLQ $61, Y2, Y2                    // sign bit = j&4
	VXORPD Y0, Y2, Y0
	VANDPD phaseSign<>(SB), Y0, Y0        // sin's sign: x's xor j&4
	VXORPD Y3, Y2, Y2
	VANDPD phaseSign<>(SB), Y2, Y2        // cos's sign: j&4 xor j&2

	VMULPD Y4, Y4, Y5                     // zz
	VMULPD phaseCos0<>(SB), Y5, Y6
	VMULPD phaseSin0<>(SB), Y5, Y7
	VADDPD phaseCos1<>(SB), Y6, Y6
	VADDPD phaseSin1<>(SB), Y7, Y7
	VMULPD Y5, Y6, Y6
	VMULPD Y5, Y7, Y7
	VADDPD phaseCos2<>(SB), Y6, Y6
	VADDPD phaseSin2<>(SB), Y7, Y7
	VMULPD Y5, Y6, Y6
	VMULPD Y5, Y7, Y7
	VADDPD phaseCos3<>(SB), Y6, Y6
	VADDPD phaseSin3<>(SB), Y7, Y7
	VMULPD Y5, Y6, Y6
	VMULPD Y5, Y7, Y7
	VADDPD phaseCos4<>(SB), Y6, Y6
	VADDPD phaseSin4<>(SB), Y7, Y7
	VMULPD Y5, Y6, Y6
	VMULPD Y5, Y7, Y7
	VADDPD phaseCos5<>(SB), Y6, Y6        // Pc
	VADDPD phaseSin5<>(SB), Y7, Y7        // Ps
	VMULPD Y5, Y5, Y8                     // zz·zz
	VMULPD Y8, Y6, Y6
	VMULPD phaseHalf<>(SB), Y5, Y8        // 0.5·zz
	VSUBPD Y8, Y13, Y8                    // 1 − 0.5·zz
	VADDPD Y6, Y8, Y6                     // cos
	VMULPD Y5, Y4, Y8                     // z·zz
	VMULPD Y8, Y7, Y7
	VADDPD Y7, Y4, Y7                     // sin

	VBLENDVPD  Y3, Y6, Y7, Y8             // sin' = swap ? cos : sin
	VBLENDVPD  Y3, Y7, Y6, Y9             // cos' = swap ? sin : cos
	VXORPD     Y0, Y8, Y8
	VXORPD     Y2, Y9, Y9
	VMULPD     Y14, Y8, Y8                // sign·sin'
	VUNPCKLPD  Y8, Y9, Y10                // [c0, s0, c2, s2]
	VUNPCKHPD  Y8, Y9, Y11                // [c1, s1, c3, s3]
	VPERM2F128 $0x20, Y11, Y10, Y12       // [c0, s0, c1, s1]
	VPERM2F128 $0x31, Y11, Y10, Y10       // [c2, s2, c3, s3]
	VMOVUPD    Y12, (DI)
	VMOVUPD    Y10, 32(DI)
	LEAQ       4(BX), AX
	JMP        next

done:
	MOVQ       AX, ret+40(FP)
	VZEROUPPER
	RET

// func mulIndexedAVX2(amps *complex128, idx *int32, n int, factors *complex128, nf int) int
//
// amps[i] *= factors[idx[i]] for i in [0, n), n even and at least 2, two
// amplitudes per register. Go's complex product is
//
//	re = ar·fr − ai·fi,  im = ar·fi + ai·fr
//
// and here [ar, ai]·[fr, fr] (VMOVDDUP) and [ai, ar]·[fi, fi] (VPERMILPD)
// meet in VADDSUBPD: subtract in the even lanes, add in the odd ones. Each
// index is compared with nf as unsigned, so a negative one fails too; a
// pair holding a bad index stops the body before it writes anything of
// that pair, and the return value says how many amplitudes it did, so
// that the Go body takes over and panics at the index as it always has.
TEXT ·mulIndexedAVX2(SB), NOSPLIT, $0-48
	MOVQ amps+0(FP), DI
	MOVQ idx+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ factors+24(FP), R8
	MOVQ nf+32(FP), R9
	XORQ AX, AX

pair:
	MOVLQSX     (SI)(AX*4), R10
	MOVLQSX     4(SI)(AX*4), R11
	CMPQ        R10, R9
	JCC         stop
	CMPQ        R11, R9
	JCC         stop
	SHLQ        $4, R10
	SHLQ        $4, R11
	VMOVUPD     (R8)(R10*1), X1
	VINSERTF128 $1, (R8)(R11*1), Y1, Y1   // [fr0, fi0, fr1, fi1]
	VMOVUPD     (DI), Y0                  // [ar0, ai0, ar1, ai1]
	VMOVDDUP    Y1, Y2                    // [fr, fr]
	VPERMILPD   $15, Y1, Y1               // [fi, fi]
	VPERMILPD   $5, Y0, Y3                // [ai, ar]
	VMULPD      Y2, Y0, Y2
	VMULPD      Y1, Y3, Y1
	VADDSUBPD   Y1, Y2, Y2
	VMOVUPD     Y2, (DI)
	ADDQ        $32, DI
	ADDQ        $2, AX
	CMPQ        AX, CX
	JLT         pair

stop:
	MOVQ       AX, ret+40(FP)
	VZEROUPPER
	RET
