package main

import "math/bits"

// Log-linear latency histogram: every power-of-two range is cut into
// 1<<histSubBits equal buckets, so a bucket is never wider than 1.6 % of
// the values it holds. stats.Hist's power-of-two buckets cannot show a
// change below 2x; this one resolves the 8–20 % bounds the benchmark
// fixes. Recording is one index computation and one increment.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 36 // values saturate at about 2^43 ns (2.4 hours)
	histBuckets = (histMaxExp + 2) * histSub
)

// hist counts nanosecond samples. The zero value is ready to use.
type hist struct {
	b [histBuckets]int64
	n int64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - (histSubBits + 1)
	if exp > histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(uint64(v)>>uint(exp)) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	exp := uint(i/histSub - 1)
	return int64(histSub+i%histSub) << exp, 1 << exp
}

func (h *hist) record(ns int64) {
	h.b[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the value of the sample at rank ceil(q*n), placed
// inside its bucket by its rank among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = min(max(rank, 1), h.n)
	var seen int64
	for i, c := range h.b {
		if seen+c >= rank {
			low, width := histBounds(i)
			return float64(low) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

// meanBetween returns the mean of the samples whose rank lies in
// (lo*n, hi*n], each taken at the middle of its bucket.
func (h *hist) meanBetween(lo, hi float64) float64 {
	from, to := lo*float64(h.n), hi*float64(h.n)
	var seen, sum, weight float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		// The part of this bucket's samples inside the rank interval.
		in := min(seen+float64(c), to) - max(seen, from)
		if in > 0 {
			low, width := histBounds(i)
			sum += in * (float64(low) + float64(width)/2)
			weight += in
		}
		seen += float64(c)
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// sparse is the wire form of a hist: [index, count] pairs of the
// non-empty buckets, so a member's report stays small.
func (h *hist) sparse() [][2]int64 {
	var out [][2]int64
	for i, c := range h.b {
		if c != 0 {
			out = append(out, [2]int64{int64(i), c})
		}
	}
	return out
}

func (h *hist) addSparse(pairs [][2]int64) {
	for _, p := range pairs {
		if p[0] >= 0 && p[0] < histBuckets {
			h.b[p[0]] += p[1]
			h.n += p[1]
		}
	}
}
