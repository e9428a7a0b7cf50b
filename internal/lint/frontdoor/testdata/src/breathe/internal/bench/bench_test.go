package bench

import "breathe/internal/sim"

// Tests may build configurations by hand: they pin the engine itself.
var fixture = sim.Config{N: 4}
