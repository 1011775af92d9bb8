package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: 64 sub-buckets per power of
// two (≤ 1.6 % bucket width), fixed size, no allocation per sample — so
// recording every op costs the measured loop one array increment.
// Quantiles interpolate inside the bucket.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSub     = 64
	histBuckets = histSub * 40 // values up to 2^45 ns, far past any op
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7 // ns>>e is in [64, 128)
	b := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketBounds returns the half-open value range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	e := b/histSub - 1
	m := int64(b%histSub + histSub)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// pmax is the highest percentile the sample supports — the one with ten
// samples beyond it — and its value.
func (h *hist) pmax() (q, ns float64) {
	if h.n < 20 {
		return 0.5, h.quantile(0.5)
	}
	q = 1 - 10/float64(h.n)
	return q, h.quantile(q)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
