package sim

// Test-only exports for the package sim_test files (ref_test.go).

// ShardTestN is shardTestN for the external tests.
const ShardTestN = shardTestN

// NewBulkChatter returns the engine tests' bulk-capable chatter protocol
// running for the given number of rounds.
func NewBulkChatter(rounds int) BulkProtocol { return &bulkChatter{rounds: rounds} }
