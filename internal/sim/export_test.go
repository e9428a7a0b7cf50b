package sim

// Test-only exports for the package sim_test files (ref_test.go).

// ShardTestN is shardTestN for the external tests.
const ShardTestN = shardTestN

// ShardMinN is shardMinN for the external tests.
const ShardMinN = shardMinN

// NewBulkChatter returns the engine tests' bulk-capable chatter protocol
// running for the given number of rounds.
func NewBulkChatter(rounds int) Protocol { return &bulkChatter{rounds: rounds} }
