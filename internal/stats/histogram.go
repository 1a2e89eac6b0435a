package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Histogram records a probability distribution as fixed-width bins, the
// form MPIBench uses for its performance PDFs. Bins are sparse (a map
// keyed by bin index), so long retransmission-timeout tails — bins far
// from the body of the distribution — cost one map entry each rather than
// a huge dense array.
type Histogram struct {
	binWidth float64
	bins     map[int]uint64
	sum      Summary

	// memoised cumulative table for Quantile/Sample; rebuilt lazily.
	cumBins   []binCount
	cumTotals []uint64
	// guide is Quantile's guide table (Chen & Asau 1974; Devroye,
	// Non-Uniform Random Variate Generation, §III.2.4): it splits q into
	// len(guide) equal buckets, and guide[k] is an index no greater than
	// the lower bound of any q in bucket k. Rebuilt with cumTotals.
	guide []int32
	dirty bool
}

// guidePerBin is how many guide buckets rebuild makes per bin: with two,
// Quantile's forward scan is a step or so.
const guidePerBin = 2

type binCount struct {
	index int
	count uint64
}

// Bin is one bar of the histogram: observations with Lo <= x < Hi.
type Bin struct {
	Lo, Hi float64
	Count  uint64
	// Density is the probability mass of the bin divided by its width,
	// i.e. the height of the PDF bar.
	Density float64
}

// NewHistogram creates a histogram with the given bin width. The paper
// attributes PEVPM's residual prediction error to bin granularity, so the
// width is the caller's choice; bench timings typically use 1–10 µs.
func NewHistogram(binWidth float64) *Histogram {
	if binWidth <= 0 || math.IsNaN(binWidth) || math.IsInf(binWidth, 0) {
		panic(fmt.Sprintf("stats: invalid bin width %v", binWidth))
	}
	return &Histogram{binWidth: binWidth, bins: make(map[int]uint64)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("stats: invalid observation %v", x))
	}
	h.bins[h.binIndex(x)]++
	h.sum.Add(x)
	h.dirty = true
}

func (h *Histogram) binIndex(x float64) int {
	return int(math.Floor(x / h.binWidth))
}

// Merge adds every observation of o into h, approximating each of o's
// observations by its bin midpoint when bin widths differ.
func (h *Histogram) Merge(o *Histogram) {
	if o.binWidth == h.binWidth {
		for idx, c := range o.bins {
			h.bins[idx] += c
		}
	} else {
		//detlint:ordered -- commutative uint64 sums into bins; binIndex is a pure function of the bin midpoint
		for idx, c := range o.bins {
			mid := (float64(idx) + 0.5) * o.binWidth
			h.bins[h.binIndex(mid)] += c
		}
	}
	h.sum.Merge(o.sum)
	h.dirty = true
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.sum.N }

// Mean returns the exact (not binned) mean of the observations.
func (h *Histogram) Mean() float64 { return h.sum.Mean }

// Std returns the exact standard deviation of the observations.
func (h *Histogram) Std() float64 { return h.sum.Std() }

// Min returns the smallest observation (the contention-free bound in the
// paper's terminology). Zero if empty.
func (h *Histogram) Min() float64 {
	if h.sum.N == 0 {
		return 0
	}
	return h.sum.Min
}

// Max returns the largest observation. Zero if empty.
func (h *Histogram) Max() float64 {
	if h.sum.N == 0 {
		return 0
	}
	return h.sum.Max
}

// SummaryStats returns a copy of the streaming summary.
func (h *Histogram) SummaryStats() Summary { return h.sum }

func (h *Histogram) rebuild() {
	if !h.dirty && h.cumBins != nil {
		return
	}
	// The memo must end up non-nil even for an empty histogram, or Freeze's
	// "no later query mutates the histogram" guarantee breaks: nil[:0] is
	// still nil, so every Quantile/CDF/Bins call would re-enter rebuild and
	// race under concurrent sampling.
	if h.cumBins == nil {
		h.cumBins = make([]binCount, 0, len(h.bins))
	}
	h.cumBins = h.cumBins[:0]
	for idx, c := range h.bins {
		h.cumBins = append(h.cumBins, binCount{idx, c})
	}
	sort.Slice(h.cumBins, func(i, j int) bool { return h.cumBins[i].index < h.cumBins[j].index })
	if h.cumTotals == nil {
		h.cumTotals = make([]uint64, 0, len(h.cumBins))
	}
	h.cumTotals = h.cumTotals[:0]
	var total uint64
	for _, bc := range h.cumBins {
		total += bc.count
		h.cumTotals = append(h.cumTotals, total)
	}
	h.buildGuide()
	h.dirty = false
}

// buildGuide fills the guide table from the cumulative totals. Quantile
// puts q in bucket int(q*K), K = len(guide). The entry of bucket k is the
// lower bound of the bucket's smallest q: the step back from k/K finds
// it when rounding carries a smaller q into the bucket. The lower bound
// grows with q, so no q in the bucket has its bin before the entry.
func (h *Histogram) buildGuide() {
	buckets := guidePerBin * len(h.cumTotals)
	if cap(h.guide) < buckets {
		h.guide = make([]int32, buckets)
	}
	h.guide = h.guide[:buckets]
	n, kf := float64(h.sum.N), float64(buckets)
	i, last := 0, len(h.cumTotals)-1
	for k := range h.guide {
		q := float64(k) / kf
		for q > 0 {
			prev := math.Nextafter(q, 0)
			if int(prev*kf) < k {
				break
			}
			q = prev
		}
		target := q * n
		for i < last && float64(h.cumTotals[i]) < target {
			i++
		}
		h.guide[k] = int32(i)
	}
}

// Freeze builds the memoised cumulative table eagerly so that
// subsequent read-only queries (Quantile, Sample, CDF, Bins, Mode) never
// mutate the histogram. A frozen histogram is safe for concurrent
// sampling from many goroutines — the property parallel PEVPM
// evaluations rely on — provided nothing Adds or Merges observations
// afterwards (which would dirty it again).
func (h *Histogram) Freeze() { h.rebuild() }

// Bins returns the non-empty bins in ascending order with densities
// normalised so the PDF integrates to one.
func (h *Histogram) Bins() []Bin {
	h.rebuild()
	out := make([]Bin, len(h.cumBins))
	n := float64(h.sum.N)
	for i, bc := range h.cumBins {
		out[i] = Bin{
			Lo:      float64(bc.index) * h.binWidth,
			Hi:      float64(bc.index+1) * h.binWidth,
			Count:   bc.count,
			Density: float64(bc.count) / (n * h.binWidth),
		}
	}
	return out
}

// Quantile returns the value below which fraction q of the mass lies,
// interpolating linearly within the containing bin. q is clamped to [0,1].
//
//detlint:hotpath
func (h *Histogram) Quantile(q float64) float64 {
	if h.sum.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.sum.Min
	}
	if q >= 1 {
		return h.sum.Max
	}
	// rebuild is not inlined: test its memo here, so a frozen histogram's
	// draw makes no call for it.
	if h.dirty || h.cumBins == nil {
		h.rebuild()
	}
	target := q * float64(h.sum.N)
	// Lower bound: the first cumulative total >= target, scanned forward
	// from q's guide entry. For q < 1, q*K rounds below K, so the bucket
	// is in range.
	i := int(h.guide[int(q*float64(len(h.guide)))])
	for float64(h.cumTotals[i]) < target {
		i++
	}
	bc := h.cumBins[i]
	var below uint64
	if i > 0 {
		below = h.cumTotals[i-1]
	}
	frac := (target - float64(below)) / float64(bc.count)
	return (float64(bc.index) + frac) * h.binWidth
}

// CDF returns the fraction of observations strictly below x, treating
// mass as spread uniformly within each bin.
func (h *Histogram) CDF(x float64) float64 {
	if h.sum.N == 0 {
		return 0
	}
	h.rebuild()
	xi := h.binIndex(x)
	lo, hi := 0, len(h.cumBins)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.cumBins[mid].index >= xi {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	var below uint64
	if i > 0 {
		below = h.cumTotals[i-1]
	}
	total := float64(below)
	if i < len(h.cumBins) && h.cumBins[i].index == xi {
		frac := x/h.binWidth - float64(xi)
		total += frac * float64(h.cumBins[i].count)
	}
	return total / float64(h.sum.N)
}

// Sample draws an observation from the histogram: a bin is chosen with
// probability proportional to its count, then a point is drawn uniformly
// within the bin. The intra-bin jitter keeps PEVPM's Monte-Carlo draws
// continuous rather than quantised to bin midpoints.
//
//detlint:hotpath
func (h *Histogram) Sample(r Rand) float64 {
	if h.sum.N == 0 {
		panic("stats: sampling from empty histogram")
	}
	h.rebuild()
	target := uint64(r.Float64() * float64(h.sum.N))
	if target >= h.sum.N {
		// Rand.Float64 contracts to [0,1), but a value rounding to 1.0 (or
		// an out-of-contract implementation returning exactly 1) would push
		// the search past the last bin and index out of range. Clamp to the
		// final observation instead of panicking.
		target = h.sum.N - 1
	}
	// Upper bound: first cumulative total > target, allocation-free.
	lo, hi := 0, len(h.cumTotals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.cumTotals[mid] > target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bc := h.cumBins[lo]
	return (float64(bc.index) + r.Float64()) * h.binWidth
}

// histogramJSON is the serialised form used in MPIBench result files.
type histogramJSON struct {
	BinWidth float64  `json:"bin_width"`
	Summary  Summary  `json:"summary"`
	Indices  []int    `json:"indices"`
	Counts   []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram with bins in ascending order.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	h.rebuild()
	j := histogramJSON{BinWidth: h.binWidth, Summary: h.sum}
	for _, bc := range h.cumBins {
		j.Indices = append(j.Indices, bc.index)
		j.Counts = append(j.Counts, bc.count)
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.BinWidth <= 0 {
		return errors.New("stats: histogram JSON has non-positive bin width")
	}
	if len(j.Indices) != len(j.Counts) {
		return errors.New("stats: histogram JSON indices/counts length mismatch")
	}
	h.binWidth = j.BinWidth
	h.sum = j.Summary
	h.bins = make(map[int]uint64, len(j.Indices))
	for i, idx := range j.Indices {
		h.bins[idx] = j.Counts[i]
	}
	h.dirty = true
	return nil
}
