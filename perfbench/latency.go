package main

import "sort"

// latHistMax bounds the exact range of latHist: durations below it are
// counted at 1 ns resolution, longer ones are kept individually.
const latHistMax = 1 << 17

// latHist is an exact nanosecond latency histogram. It is allocated before
// the timed window and adds without allocating, unless a duration exceeds
// latHistMax.
type latHist struct {
	n    int64
	b    []uint32
	over []int64
}

func newLatHist() *latHist {
	return &latHist{b: make([]uint32, latHistMax), over: make([]int64, 0, 1<<12)}
}

func (h *latHist) add(d int64) {
	h.n++
	if d < 0 {
		d = 0
	}
	if d < latHistMax {
		h.b[d]++
		return
	}
	h.over = append(h.over, d)
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
	h.over = append(h.over, o.over...)
}

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty).
func (h *latHist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n)+0.5) - 1
	rank = min(max(rank, 0), h.n-1)
	var seen int64
	for d, c := range h.b {
		seen += int64(c)
		if seen > rank {
			return int64(d)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[rank-seen]
}
