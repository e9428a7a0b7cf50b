#include "textflag.h"

// Lane k of a Fill vector starts k+1 increments past the block's base:
// (k+1)·φ64 for k = 0..7.
DATA lanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA lanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA lanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA lanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA lanes<>+32(SB)/8, $0x1715609f7c746c69
DATA lanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA lanes<>+48(SB)/8, $0x538454127b096493
DATA lanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// FMIX64 applies the SplitMix64 finalizer to every lane of z, using t as
// scratch; Z3 and Z4 hold the two multipliers in every lane.
#define FMIX64(z, t) \
	VPSRLQ  $30, z, t \
	VPXORQ  t, z, z   \
	VPMULLQ Z3, z, z  \
	VPSRLQ  $27, z, t \
	VPXORQ  t, z, z   \
	VPMULLQ Z4, z, z  \
	VPSRLQ  $31, z, t \
	VPXORQ  t, z, z

// func fillAVX512(buf []uint64, x uint64)
//
// buf[i] = fmix64(x + (i+1)·φ64); len(buf) is a multiple of 16. Two
// independent 8-lane chains per iteration keep the multiplier busy.
TEXT ·fillAVX512(SB), NOSPLIT, $0-32
	MOVQ buf_base+0(FP), DI
	MOVQ buf_len+8(FP), CX
	MOVQ x+24(FP), AX
	SHRQ $4, CX
	JZ   done

	VPBROADCASTQ AX, Z5
	VPADDQ       lanes<>(SB), Z5, Z5 // counters of words 0..7
	MOVQ         $0xf1bbcdcbfa53e0a8, AX
	VPBROADCASTQ AX, Z1              // 8·φ64
	VPADDQ       Z1, Z5, Z6          // counters of words 8..15
	VPADDQ       Z1, Z1, Z2          // 16·φ64, the per-iteration step
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z3
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z4

loop:
	VMOVDQA64 Z5, Z7
	VMOVDQA64 Z6, Z8
	FMIX64(Z7, Z9)
	FMIX64(Z8, Z10)
	VMOVDQU64 Z7, (DI)
	VMOVDQU64 Z8, 64(DI)
	VPADDQ    Z2, Z5, Z5
	VPADDQ    Z2, Z6, Z6
	ADDQ      $128, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER

done:
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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
