#include "textflag.h"

// Lane k of the fix-list index vector holds slot k of the first step.
DATA resolveLanes<>+0(SB)/4, $0
DATA resolveLanes<>+4(SB)/4, $1
DATA resolveLanes<>+8(SB)/4, $2
DATA resolveLanes<>+12(SB)/4, $3
DATA resolveLanes<>+16(SB)/4, $4
DATA resolveLanes<>+20(SB)/4, $5
DATA resolveLanes<>+24(SB)/4, $6
DATA resolveLanes<>+28(SB)/4, $7
GLOBL resolveLanes<>(SB), RODATA|NOPTR, $32

// func treeResolveAVX512(inbox []uint32, rbuf, acc []uint64, fix *[denseWidth]int32, thresh uint64) (nf int, accepted int64)
//
// treeResolve's arithmetic on eight slots per step; len(inbox) is a
// multiple of 8 and at most denseWidth, and rbuf and acc are at least as
// long. Per slot, with
// v = inbox[i], x = rbuf[i], cnt = v&0xffff, on = v>>16 and
// prod = (x&2047)·cnt:
//
//	K1  fixup   prod&2047 < cnt
//	K2  occ     cnt != 0
//	K3  keep    occ and not fixup (fixup implies occ, so occ XOR fixup)
//	K6  bit     (prod>>11 < on) XOR (x>>11 < thresh)
//
// The fix slots' indices are compressed to the front of a vector and
// stored at fix[nf:] (eight entries; those past the new nf are scratch,
// as in treeResolve, and nf ≤ i keeps the store inside the bucket's
// fix list); the inbox keeps the fix slots' words and zeroes the rest;
// keep slots add bit<<32|1 to their accumulator. nf and accepted advance
// by the popcounts of K1 and K2.
TEXT ·treeResolveAVX512(SB), NOSPLIT, $0-104
	MOVQ inbox_base+0(FP), SI
	MOVQ inbox_len+8(FP), CX
	MOVQ rbuf_base+24(FP), DX
	MOVQ acc_base+48(FP), DI
	MOVQ fix+72(FP), R8
	MOVQ thresh+80(FP), AX
	XORQ R9, R9  // nf
	XORQ R10, R10 // accepted
	SHRQ $3, CX
	JZ   done

	VPBROADCASTQ AX, Z22 // thresh
	MOVQ         $0xffff, AX
	VPBROADCASTQ AX, Z20 // count mask
	MOVQ         $2047, AX
	VPBROADCASTQ AX, Z21 // 11-bit draw mask
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z23 // addend of a zero bit
	MOVQ         $0x100000001, AX
	VPBROADCASTQ AX, Z24 // addend of a one bit
	VMOVDQU      resolveLanes<>(SB), Y12 // slot indices of this step
	MOVL         $8, AX
	VPBROADCASTD AX, Z13 // index step

loop:
	VPMOVZXDQ   (SI), Z0       // v
	VMOVDQU64   (DX), Z1       // x
	VPANDQ      Z20, Z0, Z2    // cnt
	VPSRLQ      $16, Z0, Z3    // on
	VPANDQ      Z21, Z1, Z4    // x & 2047
	VPMULUDQ    Z4, Z2, Z5     // prod
	VPANDQ      Z21, Z5, Z6    // prod & 2047
	VPCMPUQ     $1, Z2, Z6, K1 // fixup
	VPTESTMQ    Z2, Z2, K2     // occ
	KXORW       K1, K2, K3     // keep
	VPSRLQ      $11, Z5, Z7
	VPCMPUQ     $1, Z3, Z7, K4 // accepted message is a one
	VPSRLQ      $11, Z1, Z8
	VPCMPUQ     $1, Z22, Z8, K5 // noise flips it
	KXORW       K4, K5, K6     // bit

	VMOVDQA64 Z23, Z9
	VMOVDQA64 Z24, K6, Z9  // bit<<32 | 1
	VPADDQ    (DI), Z9, Z9
	VMOVDQU64 Z9, K3, (DI) // acc += addend on keep slots

	VPMOVQD.Z Z0, K1, Y10 // fix slots keep v, the rest read zero
	VMOVDQU   Y10, (SI)

	VPCOMPRESSD Z12, K1, Z11
	VMOVDQU     Y11, (R8)(R9*4)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, R9
	KMOVW       K2, BX
	POPCNTL     BX, BX
	ADDQ        BX, R10

	VPADDD Z13, Z12, Z12
	ADDQ   $32, SI
	ADDQ   $64, DX
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop
	VZEROUPPER

done:
	MOVQ R9, nf+88(FP)
	MOVQ R10, accepted+96(FP)
	RET
