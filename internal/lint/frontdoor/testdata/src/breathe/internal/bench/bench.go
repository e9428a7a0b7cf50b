// Package bench is a fixture for a package that must go through api.
package bench

import (
	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/sim"
)

// config is an alias; the literal through it is still a sim.Config.
type config = sim.Config

func runs(n int) []sim.Config {
	a := sim.Config{N: n}          // want `sim.Config literal outside internal/api`
	b := &sim.Config{}             // want `sim.Config literal outside internal/api`
	c := []sim.Config{{N: n}}      // want `sim.Config literal outside internal/api`
	d := config{MaxRounds: 8}      // want `sim.Config literal outside internal/api`
	_ = service.Config{Workers: 2} // another package's Config is not the engine's
	e := api.EngineConfig(n)       // the front door
	e.MaxRounds = 1 << 10          // overriding a field of its result is fine
	var f sim.Config               // so is a zero value
	return append(c, a, *b, d, e, f)
}
