package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// summary reports it: a tail value resting on fewer samples is one outlier.
const minBeyond = 10

// summary is a nearest-rank latency summary. It is self-contained on
// purpose, so a shared histogram type can replace it without touching the
// workloads.
type summary struct {
	N       int     // sample count
	P50     float64 // median
	Tail    float64 // value at TailPct
	TailPct float64 // requested tail percentile, or the highest one N supports
}

// summarize sorts xs in place and reports its median and the tail
// percentile want, lowered to the highest percentile that still has
// minBeyond samples above it when xs is too small for want.
func summarize(xs []float64, want float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	pct := math.Min(want, maxSupported(n))
	return summary{N: n, P50: xs[rank(50, n)-1], Tail: xs[rank(pct, n)-1], TailPct: pct}
}

// rank is the 1-based nearest rank of percentile p among n samples: the
// smallest sample with at least p% of the samples at or below it.
func rank(p float64, n int) int {
	// The epsilon keeps float rounding of an exact rank (99% of 1000 is
	// 990, not 990.0000000001) from pushing it one sample up.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// maxSupported is the highest percentile whose nearest-rank sample has
// minBeyond samples above it; it falls to 0 (the minimum) when n ≤ minBeyond.
func maxSupported(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	return 100 * float64(n-minBeyond) / float64(n)
}

// hist is a log-linear latency histogram in µs: each power of two from
// 1 µs up is cut into histSub equal buckets, so a bucket is at most 1/histSub
// of its values wide. Its size is fixed, so recording an op costs no memory.
type hist struct {
	n      int
	counts [histBuckets]uint32
}

const (
	histSub     = 128
	histOctaves = 25 // 1 µs to 2^25 µs (33 s); values outside go to the end buckets
	histBuckets = histSub * histOctaves
)

func bucketOf(us float64) int {
	if us < 1 {
		return 0
	}
	frac, exp := math.Frexp(us) // us = frac × 2^exp, frac in [0.5, 1)
	return min((exp-1)*histSub+int((2*frac-1)*histSub), histBuckets-1)
}

// bucketSpan returns bucket b's lower edge and width.
func bucketSpan(b int) (lo, width float64) {
	base := math.Ldexp(1, b/histSub)
	width = base / histSub
	return base + float64(b%histSub)*width, width
}

func (h *hist) add(us float64) {
	h.counts[bucketOf(us)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// summary is summarize for recorded samples: the same nearest ranks and
// tail rule, each value placed inside its bucket by its rank there.
func (h *hist) summary(want float64) summary {
	if h.n == 0 {
		return summary{}
	}
	pct := math.Min(want, maxSupported(h.n))
	return summary{N: h.n, P50: h.at(rank(50, h.n)), Tail: h.at(rank(pct, h.n)), TailPct: pct}
}

// at estimates the r-th smallest sample, spreading a bucket's samples
// evenly over its width.
func (h *hist) at(r int) float64 {
	seen := 0
	for b, c := range h.counts {
		if seen+int(c) >= r {
			lo, width := bucketSpan(b)
			return lo + width*(float64(r-seen)-0.5)/float64(c)
		}
		seen += int(c)
	}
	return 0 // r > h.n
}
