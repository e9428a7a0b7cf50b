//go:build !amd64

package sim

// treeResolveAVX512 has no body off amd64, where rng's AVX-512 gate is
// always off, so sweepResolve never calls it.
func treeResolveAVX512([]uint32, []uint64, []uint64, *[denseWidth]int32, uint64) (int, int64) {
	panic("sim: no AVX-512 resolve on this platform")
}
