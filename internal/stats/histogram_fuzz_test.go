package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// quantileBinarySearch is Quantile as a plain lower-bound binary search
// over the cumulative table: the reference FuzzQuantile holds Quantile
// to, bit for bit.
func quantileBinarySearch(h *Histogram, q float64) float64 {
	if h.sum.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.sum.Min
	}
	if q >= 1 {
		return h.sum.Max
	}
	h.rebuild()
	target := q * float64(h.sum.N)
	lo, hi := 0, len(h.cumTotals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if float64(h.cumTotals[mid]) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bc := h.cumBins[lo]
	var below uint64
	if lo > 0 {
		below = h.cumTotals[lo-1]
	}
	frac := (target - float64(below)) / float64(bc.count)
	return (float64(bc.index) + frac) * h.binWidth
}

// fuzzHistogram decodes data into a histogram with 5 µs bins, the
// width of the predict database. An even first byte adds observations,
// one per later byte pair: bin and position in the bin, with a bin byte
// of 0xf0 or more landing in a far tail, thousands of bins out, as RTO
// retries do. An odd first byte decodes the pairs as bins through
// UnmarshalJSON, the only way a zero-count bin (a plateau in the
// cumulative table) gets in: index step and count. Nil when data holds
// no pair.
func fuzzHistogram(data []byte) *Histogram {
	if len(data) < 3 {
		return nil
	}
	const width = 5e-6
	tail := func(b byte) int {
		if b < 0xf0 {
			return int(b)
		}
		return 256 + int(b-0xf0)*40000
	}
	mode, data := data[0], data[1:]
	h := NewHistogram(width)
	if mode%2 == 0 {
		for ; len(data) >= 2; data = data[2:] {
			h.Add((float64(tail(data[0])) + float64(data[1])/256) * width)
		}
		return h
	}
	j := histogramJSON{BinWidth: width}
	idx := -1
	for ; len(data) >= 2; data = data[2:] {
		idx += 1 + tail(data[0])
		j.Indices = append(j.Indices, idx)
		j.Counts = append(j.Counts, uint64(data[1]))
		j.Summary.N += uint64(data[1])
	}
	j.Summary.Min = float64(j.Indices[0]) * width
	j.Summary.Max = float64(idx+1) * width
	raw, err := json.Marshal(j)
	if err != nil {
		panic(err)
	}
	if err := h.UnmarshalJSON(raw); err != nil {
		panic(err)
	}
	return h
}

// quantileEdges lists the q values where an off-by-one in the guide
// table would show: every bucket edge k/K and every cumulative fraction
// cumTotals[i]/N, each with its neighbouring doubles, and the doubles
// next to 0 and 1.
func quantileEdges(h *Histogram) []float64 {
	qs := []float64{math.Nextafter(0, 1), math.Nextafter(1, 0)}
	near := func(q float64) {
		qs = append(qs, math.Nextafter(q, 0), q, math.Nextafter(q, 1))
	}
	h.rebuild()
	k := len(h.guide)
	for i := 1; i < k; i++ {
		near(float64(i) / float64(k))
	}
	if h.sum.N > 0 {
		for _, c := range h.cumTotals {
			near(float64(c) / float64(h.sum.N))
		}
	}
	return qs
}

// FuzzQuantile holds Quantile to the binary-search lower bound bit for
// bit on histograms with far tails, single bins and plateaus.
func FuzzQuantile(f *testing.F) {
	seeds := [][]byte{
		{0, 3, 128},                                       // one observation
		{0, 7, 10, 7, 200, 7, 99},                         // one bin
		{0, 1, 0, 2, 0, 2, 9, 3, 0, 3, 1},                 // a small body
		{0, 40, 1, 41, 9, 41, 80, 42, 3, 250, 7, 0xf3, 2}, // body and far tails
		{1, 0, 0, 0, 4, 2, 0, 0, 4, 0, 0},                 // zero-count bins first, inside and last
		{1, 0, 2, 0, 2, 0, 2, 0xf1, 2, 0, 0, 0, 2},        // equal steps, a far bin, a plateau
		// Seven bins, N = 42, 27 in the first: the double just below 9/14
		// still rounds into bucket 9 of 14, but its lower bound is the
		// first bin, one before the lower bound of 9/14 itself.
		{1, 0, 27, 0, 3, 0, 3, 0, 3, 0, 2, 0, 2, 0, 2},
	}
	body := []byte{0}
	for i := 0; i < 200; i++ {
		b := byte(30 + (i*i)%23)
		if i%41 == 0 {
			b = 0xf0 + byte(i%5)
		}
		body = append(body, b, byte(i*37))
	}
	seeds = append(seeds, body)
	for _, data := range seeds {
		for _, q := range quantileEdges(fuzzHistogram(data)) {
			f.Add(data, q)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) {
			// A NaN q has no lower bound; neither search defines a
			// result for it.
			t.Skip()
		}
		h := fuzzHistogram(data)
		if h == nil {
			t.Skip()
		}
		want := quantileBinarySearch(h, q)
		if got := h.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Quantile(%v) = %v (%#x), binary search gives %v (%#x); %d bins, N = %d",
				q, got, math.Float64bits(got), want, math.Float64bits(want), len(h.cumBins), h.sum.N)
		}
	})
}
