#include "textflag.h"

// func wordsAVX512(out []uint64, idx []int32, base uint64)
//
// out[i] = fmix64(base + (uint64(idx[i])+1)·φ64) for i < len(out), a
// multiple of 8; idx is at least as long. Each iteration sign-extends
// eight indices, as Go's uint64(int32) conversion does.
TEXT ·wordsAVX512(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ idx_base+24(FP), SI
	MOVQ base+48(FP), AX
	SHRQ $3, CX
	JZ   done

	MOVQ         $0x9e3779b97f4a7c15, BX
	VPBROADCASTQ BX, Z1 // φ64
	ADDQ         BX, AX
	VPBROADCASTQ AX, Z2 // base + φ64
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z3
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z4

loop:
	VPMOVSXDQ (SI), Z5
	VPMULLQ   Z1, Z5, Z5
	VPADDQ    Z2, Z5, Z5
	VPSRLQ    $30, Z5, Z6
	VPXORQ    Z6, Z5, Z5
	VPMULLQ   Z3, Z5, Z5
	VPSRLQ    $27, Z5, Z6
	VPXORQ    Z6, Z5, Z5
	VPMULLQ   Z4, Z5, Z5
	VPSRLQ    $31, Z5, Z6
	VPXORQ    Z6, Z5, Z5
	VMOVDQU64 Z5, (DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER

done:
	RET
