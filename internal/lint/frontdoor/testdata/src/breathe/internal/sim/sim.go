// Package sim is a fixture standing in for the engine, which defines
// Config and may spell it out.
package sim

// Config assembles a run.
type Config struct {
	N         int
	MaxRounds int
}

// withDefaults fills the round cap: the defining package builds its own
// type freely.
func withDefaults(c Config) Config {
	return Config{N: c.N, MaxRounds: 1 << 20}
}
