package rng

import (
	"os"
	"strings"
)

// avx512 reports whether Fill and Words may run their AVX-512 kernels:
// the CPU has AVX-512F and AVX-512DQ (VPMULLQ), the OS saves the opmask
// and zmm state (OSXSAVE, then XCR0 bits 1, 2 and 5–7), and GODEBUG does
// not turn AVX-512 off with the runtime's own cpu.avx512f=off or
// cpu.all=off.
func avx512() bool {
	for _, opt := range strings.Split(os.Getenv("GODEBUG"), ",") {
		if opt == "cpu.avx512f=off" || opt == "cpu.all=off" {
			return false
		}
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const f, dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(f|dq) == f|dq
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// fillAVX512 sets buf[i] = fmix64(x + (i+1)·φ64); len(buf) must be a
// multiple of 16.
//
//go:noescape
func fillAVX512(buf []uint64, x uint64)

// wordsAVX512 sets out[i] = fmix64(base + (uint64(idx[i])+1)·φ64) for
// i < len(out), which must be a multiple of 8 and at most len(idx).
//
//go:noescape
func wordsAVX512(out []uint64, idx []int32, base uint64)
