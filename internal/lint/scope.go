package lint

// The scope tables: which packages carry which invariants. Paths are
// canonical (test variants resolve to the same entry via
// Pass.Canonical).
//
// The deterministic core is every package whose execution must be a
// pure function of (canonical request, seed): the engine and kernels,
// the protocols (the paper's and the baselines), the draw streams, the channel models, and the sweep
// grid/aggregation layer whose artifacts are content-addressed. The
// serving layer (api validation aside), the daemons and the CLIs are
// deliberately outside: they measure wall time and iterate maps for
// presentation, and pinning them would only breed annotation noise.

// deterministic is the set of packages where randomness must flow
// through addressed rng streams and nothing else.
var deterministic = map[string]bool{
	"breathe/internal/sim":      true,
	"breathe/internal/core":     true,
	"breathe/internal/async":    true,
	"breathe/internal/baseline": true,
	"breathe/internal/rng":      true,
	"breathe/internal/channel":  true,
	"breathe/internal/popproto": true,
	"breathe/internal/sweep":    true,
}

// orderSensitive additionally covers packages whose byte output
// (canonical hashes, checkpoint files, stats served to sweep digests)
// must not depend on map iteration order.
var orderSensitive = map[string]bool{
	"breathe/internal/api":     true,
	"breathe/internal/service": true,
}

// Deterministic reports whether the canonical path is in the
// deterministic core.
func Deterministic(canonical string) bool { return deterministic[canonical] }

// OrderSensitive reports whether map iteration order in the canonical
// path can leak into bytes that must be stable (the deterministic core
// plus the serving/aggregation layers).
func OrderSensitive(canonical string) bool {
	return deterministic[canonical] || orderSensitive[canonical]
}
