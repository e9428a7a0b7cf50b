// Package api is a fixture standing in for the front door itself.
package api

import "breathe/internal/sim"

// EngineConfig is the one constructor of a run's configuration.
func EngineConfig(n int) sim.Config {
	return sim.Config{N: n}
}
