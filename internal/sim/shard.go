package sim

const (
	// minShardSlots is the virtual-shard granularity: the population is
	// decomposed into numShards(n) = min(maxShards, n/minShardSlots)
	// contiguous shards, two tree buckets per shard.
	minShardSlots = 2 * denseWidth
	// maxShards caps the decomposition.
	maxShards = 64
)

// numShards returns the virtual-shard count for a population of n agents.
// A tree round with at least two shards and shardMinMessages messages runs
// its buckets in parallel and is accounted as Sharded; the count is a pure
// function of n, so the accounting is independent of Config.Shards.
func numShards(n int) int {
	s := n / minShardSlots
	if s > maxShards {
		s = maxShards
	}
	if s < 1 {
		s = 1
	}
	return s
}
