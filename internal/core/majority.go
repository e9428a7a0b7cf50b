package core

import (
	"math"

	"breathe/internal/channel"
)

// MajorityRule is Stage II's decision (§2.2): an agent holding total ≥ g
// samples, ones of them 1s, adopts the majority of a uniform g-subset of
// them, whose count of 1s is Hyp(total, ones, g) (Remark 2.10). So it
// adopts One with probability P = Pr[Hyp(total, ones, g) > g/2]: iff its
// uniform word is below ⌊P̂·2⁶⁴⌋, P̂ being P in float64 (P = 0 and 1 are
// exact). The thresholds of the current g are memoized in one row per
// total, built the first time that total is seen. The zero value holds no
// rows.
type MajorityRule struct {
	g    int
	rows [][]uint64 // rows[total-g][ones] = ⌊P̂·2⁶⁴⌋; nil until total is seen
}

// Opinion returns the opinion an agent holding total ≥ g samples, ones of
// them 1s, adopts; word is the agent's addressed uniform word.
func (r *MajorityRule) Opinion(g, total, ones int, word uint64) channel.Bit {
	need := g/2 + 1 // the fewest 1s a majority of g holds
	switch {
	case ones < need:
		return channel.Zero // no g-subset holds a majority of 1s: P = 0
	case total-ones <= g-need:
		return channel.One // every g-subset does: P = 1
	}
	if g != r.g {
		*r = MajorityRule{g: g}
	}
	i := total - g
	for len(r.rows) <= i {
		r.rows = append(r.rows, nil)
	}
	if r.rows[i] == nil {
		row := make([]uint64, total+1)
		for k := need; total-k > g-need; k++ {
			row[k] = math.MaxUint64 // P̂ rounded up to 1
			if t := upperTail(total, k, g, need) * 0x1p64; t < 0x1p64 {
				row[k] = uint64(t)
			}
		}
		r.rows[i] = row
	}
	if word < r.rows[i][ones] {
		return channel.One
	}
	return channel.Zero
}

// upperTail returns Pr[Hyp(total, ones, g) ≥ need] for 0 < P < 1, with
// relative error at most (6g+8)·2⁻⁵³: the pmf's weights are walked up its
// support by their ratio recurrence, rescaled exactly by 2⁻⁵¹² whenever a
// weight passes 2⁵¹² (a step multiplies by less than 2⁵³).
func upperTail(total, ones, g, need int) float64 {
	zeros := total - ones
	var tail, all float64
	for x, w := max(0, g-zeros), 1.0; x <= min(g, ones); x++ {
		if w > 0x1p512 {
			w, tail, all = w*0x1p-512, tail*0x1p-512, all*0x1p-512
		}
		all += w
		if x >= need {
			tail += w
		}
		// f(x+1)/f(x) = (ones−x)(g−x) / ((x+1)(zeros−g+x+1))
		w *= float64((ones-x)*(g-x)) / float64((x+1)*(zeros-g+x+1))
	}
	return tail / all
}
