//go:build !amd64

package rng

// avx512 is false off amd64: Fill and Words always run their scalar loops.
func avx512() bool { return false }

func fillAVX512([]uint64, uint64) { panic("rng: no AVX-512 kernel on this platform") }

func wordsAVX512([]uint64, []int32, uint64) { panic("rng: no AVX-512 kernel on this platform") }
