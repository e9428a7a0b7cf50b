package sim

// treeResolveAVX512 is treeResolve's vector body (resolve_amd64.s): it
// resolves every slot of inbox, whose length must be a multiple of 8 and
// at most denseWidth, eight slots per step, with the same arithmetic and
// outputs — the fix list in ascending slot order, the inbox left behind,
// the accumulators, nf and accepted. rbuf and acc must be at least as
// long as inbox. Only sweepResolve calls it, behind rng's AVX-512 gate.
//
//go:noescape
func treeResolveAVX512(inbox []uint32, rbuf, acc []uint64, fix *[denseWidth]int32, thresh uint64) (nf int, accepted int64)
