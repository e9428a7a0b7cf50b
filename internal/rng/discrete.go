package rng

import "math"

// Binomial returns a sample from Binomial(n, p): the number of successes in
// n independent Bernoulli(p) trials. The simulator uses this to collapse
// "flip each of n message bits independently" into a single draw.
//
// For small expected counts it uses exact CDF inversion; for large ones the
// BTRS transformed-rejection algorithm of Hörmann (1993), which is exact
// and runs in O(1) expected time.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with n < 0")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so that the working probability is at most 1/2.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 10 {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion samples by walking the CDF. Expected time O(np + 1).
func (r *RNG) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	f := math.Pow(q, float64(n)) // P(X = 0); safe because np < 10 keeps this > 0
	if f <= 0 {
		// Extremely small probability of underflow when n is huge and p
		// tiny; fall back to counting individual trials in chunks.
		return r.binomialCount(n, p)
	}
	u := r.Float64()
	x := 0
	for u > f {
		u -= f
		x++
		if x > n {
			// Float round-off exhausted the mass; the tail is X = n.
			return n
		}
		f *= a/float64(x) - s
	}
	return x
}

// binomialCount is the trivial O(n) sampler, used only as an underflow
// fallback.
func (r *RNG) binomialCount(n int, p float64) int {
	c := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			c++
		}
	}
	return c
}

// binomialBTRS implements the BTRS algorithm (Hörmann, "The generation of
// binomial random variates", JSCS 1993) for p <= 1/2 and np >= 10.
func (r *RNG) binomialBTRS(n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor(float64(n+1) * p)
	h := logFactorial(int(m)) + logFactorial(n-int(m))

	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || k > nf {
			continue
		}
		ik := int(k)
		lv := math.Log(v * alpha / (a/(us*us) + b))
		if lv <= h-logFactorial(ik)-logFactorial(n-ik)+(k-m)*lpq {
			return ik
		}
	}
}

// logFactorial returns log(k!) using a small table for k < 10 and
// Stirling's series otherwise.
func logFactorial(k int) float64 {
	if k < 0 {
		panic("rng: logFactorial of negative value")
	}
	if k < len(logFactTable) {
		return logFactTable[k]
	}
	x := float64(k + 1)
	return (x-0.5)*math.Log(x) - x + 0.91893853320467274178 + // log(sqrt(2*pi))
		1/(12*x) - 1/(360*x*x*x)
}

var logFactTable = [...]float64{
	0,
	0,
	0.69314718055994531,
	1.79175946922805500,
	3.17805383034794562,
	4.78749174278204599,
	6.57925121201010100,
	8.52516136106541430,
	10.60460290274525023,
	12.80182748008146961,
	15.10441257307551530,
	17.50230784587388584,
	19.98721449566188615,
	22.55216385312342289,
	25.19122118273868150,
	27.89927138384089157,
}
