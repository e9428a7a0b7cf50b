// Package popproto implements the population-protocol model and the
// three-state approximate-majority protocol of Angluin, Aspnes and
// Eisenstat ("A simple population protocol for fast robust approximate
// majority", Distributed Computing 2008), which the paper's §1.2 cites
// and rejects: it converges in O(log n) parallel time and tolerates a few
// Byzantine agents, but "is not robust under communication noise", and it
// "inherently uses three symbols in the communication" while the Flip
// model allows only two.
//
// The package exists to reproduce that comparison (experiment E15): under
// symbol noise the three-state protocol loses its majority or fails to
// stabilize, while the breathe protocol operates at the same noise by
// design.
//
// Model: in each interaction an ordered pair (initiator, responder) is
// drawn uniformly at random; the responder updates its state as a
// function of both states. Time is measured in parallel rounds of n
// interactions each.
package popproto

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// State is an agent state of the three-state protocol.
type State uint8

const (
	// Blank is the undecided third symbol.
	Blank State = iota
	// X is the first opinion.
	X
	// Y is the second opinion.
	Y
)

func (s State) String() string {
	switch s {
	case Blank:
		return "b"
	case X:
		return "x"
	case Y:
		return "y"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config assembles an approximate-majority run.
type Config struct {
	// InitialX and InitialY are the initial supporters of each opinion;
	// InitialX + InitialY agents must not exceed N. The rest start Blank.
	N, InitialX, InitialY int
	// SymbolNoise is the probability that the responder misreads the
	// initiator's state, observing one of the other two symbols uniformly
	// at random. Zero reproduces the original protocol.
	SymbolNoise float64
	// MaxParallelRounds caps execution (n interactions per parallel
	// round). Zero means 4096 rounds.
	MaxParallelRounds int
	// Seed fixes the randomness.
	Seed uint64
}

func (c Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("popproto: N = %d", c.N)
	case c.InitialX < 0 || c.InitialY < 0 || c.InitialX+c.InitialY > c.N:
		return fmt.Errorf("popproto: invalid initial counts x=%d y=%d n=%d", c.InitialX, c.InitialY, c.N)
	case c.SymbolNoise < 0 || c.SymbolNoise > 1:
		return fmt.Errorf("popproto: symbol noise %v outside [0,1]", c.SymbolNoise)
	case c.MaxParallelRounds < 0:
		return fmt.Errorf("popproto: negative round cap")
	}
	return nil
}

// Result reports a completed run.
type Result struct {
	// Converged reports whether the population reached a uniform X or Y
	// configuration (Blank-free) before the cap.
	Converged bool
	// Winner is the surviving opinion when Converged.
	Winner State
	// ParallelRounds is the elapsed time in units of n interactions.
	ParallelRounds int
	// Interactions counts pairwise meetings.
	Interactions int64
	// FinalX, FinalY, FinalBlank are the final state counts.
	FinalX, FinalY, FinalBlank int
}

// Run executes the three-state approximate-majority protocol.
//
// Every interaction reads its own addressed words: interaction s of
// parallel round t takes words 3s (initiator), 3s+1 (responder) and 3s+2
// (misread) of the run key's StreamPopulation cell t, so a run is a pure
// function of (configuration, seed).
//
// Transition (initiator u, responder v), with v's update on observing u's
// (possibly corrupted) state:
//
//	x,y → b    y,x → b    b,x → x    b,y → y      (responder listed first)
//
// i.e. an opinionated responder meeting the opposite opinion blanks
// itself, and a blank responder adopts the initiator's opinion.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	maxRounds := cfg.MaxParallelRounds
	if maxRounds == 0 {
		maxRounds = 4096
	}
	key := rng.NewKey(cfg.Seed)
	noise := channel.FlipThreshold53(cfg.SymbolNoise)
	n := cfg.N
	states := make([]State, n)
	for i := 0; i < cfg.InitialX; i++ {
		states[i] = X
	}
	for i := cfg.InitialX; i < cfg.InitialX+cfg.InitialY; i++ {
		states[i] = Y
	}
	countX, countY := cfg.InitialX, cfg.InitialY
	countB := n - countX - countY

	var res Result
	uniform := func() (State, bool) {
		if countB != 0 || (countX != 0 && countY != 0) {
			return 0, false
		}
		if countX > 0 {
			return X, true
		}
		return Y, true
	}
	// A noiseless initial configuration that is already uniform has
	// converged at time zero — uniform blank-free states are absorbing, so
	// charging a full parallel round of n interactions would misreport
	// both counters for degenerate inputs. Under symbol noise a uniform
	// configuration is transient (misreads recreate blanks), so the run
	// proceeds.
	if w, ok := uniform(); ok && cfg.SymbolNoise == 0 {
		res.Converged = true
		res.Winner = w
	}
	for round := 0; round < maxRounds && !res.Converged; round++ {
		cell := key.Cell(rng.StreamPopulation, uint64(round))
		for step := 0; step < n; step++ {
			i := 3 * uint64(step)
			u := int(cell.Uint64n(i, uint64(n)))
			v := int(cell.Uint64n(i+1, uint64(n-1)))
			if v >= u {
				v++
			}
			observed := states[u]
			if w := cell.Uint64(i + 2); w>>11 < noise {
				// Misread as one of the two other symbols, picked by the
				// word's low bit, which the threshold test never reads.
				observed = corrupt(observed, w)
			}
			old := states[v]
			next := transition(old, observed)
			if next != old {
				switch old {
				case X:
					countX--
				case Y:
					countY--
				default:
					countB--
				}
				switch next {
				case X:
					countX++
				case Y:
					countY++
				default:
					countB++
				}
				states[v] = next
			}
			res.Interactions++
		}
		res.ParallelRounds = round + 1
		if w, ok := uniform(); ok {
			res.Converged = true
			res.Winner = w
		}
	}
	res.FinalX, res.FinalY, res.FinalBlank = countX, countY, countB
	return res, nil
}

// transition implements the AAE rule for responder state v observing
// initiator symbol u.
func transition(v, u State) State {
	switch {
	case v == X && u == Y:
		return Blank
	case v == Y && u == X:
		return Blank
	case v == Blank && u == X:
		return X
	case v == Blank && u == Y:
		return Y
	default:
		return v
	}
}

// corrupt returns one of the two symbols different from s, the first or
// the second as pick's low bit is 0 or 1.
func corrupt(s State, pick uint64) State {
	others := [2]State{}
	k := 0
	for _, c := range [3]State{Blank, X, Y} {
		if c != s {
			others[k] = c
			k++
		}
	}
	return others[pick&1]
}
