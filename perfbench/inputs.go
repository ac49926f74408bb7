package main

import (
	"math"
	"math/rand"
	"sort"
)

// zipfScatter maps Zipf ranks to operand keys: multiplication by an odd
// constant is a bijection modulo 2^width, so the hot set is scattered over the
// whole domain instead of clustering in the lowest bins.
const zipfScatter = 0x9E3779B97F4A7C15

// zipf draws operands whose rank follows a bounded power law P(rank) ∝
// rank^-s over the width-bit domain, by inverting the continuous CDF. The
// rank → key scatter is fixed, so every seed sees the same hot set and only
// the draws differ.
type zipf struct {
	rng  *rand.Rand
	mask uint64
	pow  float64 // N^(1-s) − 1
	inv  float64 // 1/(1-s)
}

func newZipf(rng *rand.Rand, width int, s float64) *zipf {
	n := math.Ldexp(1, width)
	return &zipf{
		rng:  rng,
		mask: uint64(1)<<uint(width) - 1,
		pow:  math.Pow(n, 1-s) - 1,
		inv:  1 / (1 - s),
	}
}

// next draws one operand; offset rotates the scattered hot set.
func (z *zipf) next(offset uint64) uint64 {
	u := 1 - z.rng.Float64() // (0, 1]
	rank := uint64(math.Pow(z.pow*u+1, z.inv))
	if rank >= 1 {
		rank--
	}
	return (rank*zipfScatter + offset) & z.mask
}

// triangular draws from a triangular distribution centred on peak with the
// given half-width, clamped to [0, max].
func triangular(rng *rand.Rand, peak, half, max uint64) uint64 {
	d := int64(rng.Uint64()%(half+1)) - int64(rng.Uint64()%(half+1))
	v := int64(peak) + d
	if v < 0 {
		v = 0
	}
	if v > int64(max) {
		v = int64(max)
	}
	return uint64(v)
}

// inputProps are the measured properties of a workload's generated operands
// that its behaviour depends on; "helps only inputs with property X" claims
// cite them.
type inputProps struct {
	// UniqueRatio is the mean share of distinct keys per batch (what the
	// intra-batch dedup pass can fold away).
	UniqueRatio float64 `json:"unique_key_ratio_per_batch"`
	// HotShare is the share of samples whose key is among the cacheSlots
	// most frequent keys of the whole input (what a cache of that size can
	// serve at best).
	HotShare float64 `json:"hot_set_share"`
	// RoundTV is the mean total-variation distance between the operand
	// histograms (64 equal-width bins) of consecutive rounds.
	RoundTV float64 `json:"round_tv_mean"`
}

// uniqueRatio is the mean distinct-key share over batches.
func uniqueRatio(batches [][]uint64) float64 {
	if len(batches) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{})
	var sum float64
	for _, b := range batches {
		clear(seen)
		for _, x := range b {
			seen[x] = struct{}{}
		}
		sum += float64(len(seen)) / float64(len(b))
	}
	return sum / float64(len(batches))
}

// hotShare is the share of all samples covered by the slots most frequent
// keys.
func hotShare(batches [][]uint64, slots int) float64 {
	freq := make(map[uint64]int)
	total := 0
	for _, b := range batches {
		for _, x := range b {
			freq[x]++
		}
		total += len(b)
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	hot := 0
	for i := 0; i < len(counts) && i < slots; i++ {
		hot += counts[i]
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}

// meanRoundTV is the mean total-variation distance between the 64-bin
// histograms of consecutive rounds' operands.
func meanRoundTV(rounds [][]uint64, width int) float64 {
	const bins = 64
	shift := uint(0)
	if width > 6 {
		shift = uint(width - 6)
	}
	hist := func(xs []uint64) [bins]float64 {
		var h [bins]float64
		for _, x := range xs {
			h[(x>>shift)%bins]++
		}
		for i := range h {
			h[i] /= float64(len(xs))
		}
		return h
	}
	if len(rounds) < 2 {
		return 0
	}
	prev := hist(rounds[0])
	var sum float64
	for _, r := range rounds[1:] {
		cur := hist(r)
		var tv float64
		for i := range cur {
			tv += math.Abs(cur[i] - prev[i])
		}
		sum += tv / 2
		prev = cur
	}
	return sum / float64(len(rounds)-1)
}
