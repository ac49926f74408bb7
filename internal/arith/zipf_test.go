package arith

import "math"

// zipfSource is the bounded Zipf operand generator of the cached-eval
// benchmarks. The standard library's rand.Zipf requires s > 1, but the
// benchmarks span skews 0.6–1.4, so ranks are drawn by inverting the
// continuous bounded power-law CDF instead: for u uniform in (0, 1],
//
//	k = ((N^(1-s) − 1)·u + 1)^(1/(1-s))   (s ≠ 1)
//	k = N^u                               (s = 1)
//
// gives k in [1, N] with P(rank) ∝ rank^-s. s <= 0 degenerates to a uniform
// draw.
//
// Rank 0 is the hottest value. Ranks map to operand keys by multiplication
// with an odd constant modulo 2^width — a bijection, so the hot set is
// scattered across the whole domain instead of clustered at small operands
// (small operands would land in the same TCAM bins and flatter the cache
// less than a real skewed workload would).
type zipfSource struct {
	s    float64
	n    float64 // domain size
	mask uint64
	uni  bool    // s <= 0: uniform
	one  bool    // |s-1| tiny: use the s=1 closed form
	pow  float64 // N^(1-s) − 1, precomputed (s ≠ 1)
	inv  float64 // 1/(1-s), precomputed (s ≠ 1)
	logN float64 // ln N, precomputed (s = 1)
	rand func() float64
}

// zipfScatter is the odd rank→key multiplier (any odd constant is a
// bijection mod 2^width; this one is the 64-bit golden-ratio mix constant).
const zipfScatter = 0x9E3779B97F4A7C15

func newZipf(randFloat func() float64, width int, s float64) *zipfSource {
	n := math.Pow(2, float64(width))
	z := &zipfSource{
		s:    s,
		n:    n,
		mask: uint64(1)<<uint(width) - 1,
		rand: randFloat,
	}
	switch {
	case s <= 0:
		z.uni = true
	case math.Abs(s-1) < 1e-9:
		z.one = true
		z.logN = math.Log(n)
	default:
		z.pow = math.Pow(n, 1-s) - 1
		z.inv = 1 / (1 - s)
	}
	return z
}

// Next draws one operand.
func (z *zipfSource) Next() uint64 {
	u := 1 - z.rand() // uniform in (0, 1]
	var k float64
	switch {
	case z.uni:
		k = u * z.n
	case z.one:
		k = math.Exp(u * z.logN)
	default:
		k = math.Pow(z.pow*u+1, z.inv)
	}
	rank := uint64(k)
	if rank >= 1 {
		rank-- // k ∈ [1, N] → rank ∈ [0, N-1]
	}
	if z.uni {
		return rank & z.mask
	}
	return (rank * zipfScatter) & z.mask
}

// Fill fills dst with draws.
func (z *zipfSource) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = z.Next()
	}
}
