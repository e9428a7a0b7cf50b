package async

// Quiet-span oracle (sim.QuietSpanner). The asynchronous executions are
// dominated by dilation gaps: global rounds in which no offset class's
// local clock falls inside a send window. The batched kernel already
// makes such rounds cheap (O(#classes)); NextActive makes them free by
// telling the engine, after a quiet round, the first future round that
// can act at all, so the whole gap is skipped in O(log #phases) per
// class.
//
// NextActive(g) returns min over three kinds of future activity:
//
//   - the first round >= g at which some offset class is inside a send
//     window (the self-sync activation prelude, local [-2L, -L), or a
//     dilated phase window) — an over-approximation of "some agent may
//     send": window membership is necessary for sending, so rounds below
//     the minimum are guaranteed silent;
//   - the first round >= g at which EndRound finalizes a phase — a
//     finalization mutates opinions even in a round nobody sends, so a
//     span must never jump across one;
//   - totalRounds, where Done flips.
//
// Exactness for ModeSelfSync: the oracle only sees the offset classes
// that exist when it is called, and a class is created at an agent's
// first contact — inside a delivery. The engine consults the oracle only
// after a round with zero live senders, and a span's rounds deliver
// nothing by construction, so the class set is frozen across the span:
// the minimum over existing classes is exact, not merely conservative.
// Crashes only remove senders, so they cannot invalidate the bound
// either (the engine additionally caps spans at declared crash
// boundaries).
//
// Every draw of this protocol is addressed through the run key, so
// jumping the round cursor consumes nothing from any stream; the
// breathevet annotation has the analyzer prove the oracle itself draws
// nothing over the whole callgraph.

// NextActive implements the sim.QuietSpanner capability; see the file
// comment for the contract and the exactness argument.
//
//breathe:drawfree
func (p *Protocol) NextActive(g int) int {
	if g >= p.totalRounds {
		return g
	}
	next := p.totalRounds
	if f := p.nextFinalize(g); f < next {
		next = f
	}
	for ci := range p.classes {
		if next <= g {
			break
		}
		if s := p.nextClassSend(p.classes[ci].base, g); s < next {
			next = s
		}
	}
	return next
}

// finalizeRound returns the global round at which EndRound finalizes
// phase k: the last round of k's attribution range [localStart_k + sigma,
// localStart_{k+1} + sigma), or the very last scheduled round for the
// final phase — exactly the windowEnd computed in EndRound. Strictly
// increasing in k (localStart is strictly increasing).
func (p *Protocol) finalizeRound(k int) int {
	if k+1 < len(p.phases) {
		return p.phases[k+1].localStart + p.sigma - 1
	}
	return p.totalRounds - 1
}

// nextFinalize returns the first phase-finalization round >= g. The
// caller guarantees g < totalRounds, and the last phase finalizes at
// totalRounds-1, so a finalization always exists.
func (p *Protocol) nextFinalize(g int) int {
	lo, hi := 0, len(p.phases)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.finalizeRound(mid) >= g {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return p.finalizeRound(lo)
}

// nextClassSend returns the first round >= g at which the offset class
// with clock base base is inside a send window — the activation prelude
// or a phase window, the same predicate BulkSenders applies per round —
// or totalRounds when no window lies ahead. Eligibility inside the
// window (opinions, Stage I level) is deliberately ignored: the result
// under-approximates the gap, never the activity.
func (p *Protocol) nextClassSend(base, g int) int {
	l := g + base
	if p.mode == ModeSelfSync && l < -p.preludeLen {
		// Activation broadcast window, local [-2L, -L): every member
		// sends. A class exists only once its clock is set, so l >= -2L
		// always holds here, but clamp defensively.
		if l >= -2*p.preludeLen {
			return g
		}
		return g + (-2*p.preludeLen - l)
	}
	k := p.nextWindow(l)
	if k < 0 {
		return p.totalRounds
	}
	if p.phases[k].localStart <= l {
		return g
	}
	return g + p.phases[k].localStart - l
}

// nextWindow returns the smallest phase index whose local window ends
// after clock reading l (the phase containing l, or the next one ahead),
// or -1 when l is past every window. Window ends are strictly increasing
// in the phase index.
func (p *Protocol) nextWindow(l int) int {
	last := len(p.phases) - 1
	if l >= p.phases[last].localStart+p.phases[last].len {
		return -1
	}
	lo, hi := 0, last
	for lo < hi {
		mid := (lo + hi) / 2
		if p.phases[mid].localStart+p.phases[mid].len > l {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
