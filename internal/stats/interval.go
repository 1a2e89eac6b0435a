package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file is the experimental-design layer's estimator toolbox:
// confidence intervals on means and quantiles, outlier-robust location
// and scale estimators, and a stationarity-drift statistic. "MPI
// Benchmarking Revisited" (Hunold & Carpen-Amarie) catalogues how
// benchmark results reported as bare means of N repetitions mislead;
// everything here exists so mpibench results can carry their own
// uncertainty and the BENCH.json regression gate can test interval
// overlap instead of crude percentage bands.
//
// Nothing in this file draws randomness of its own: bootstrap
// resampling goes through the Rand interface, so callers seed it from
// sim.SubSeed and interval output is bit-identical at any worker count.

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64 `json:"point"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"` // confidence level, e.g. 0.95
	N     uint64  `json:"n"`     // observations behind the estimate
}

// HalfWidth returns half the interval's width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelHalfWidth returns the half-width relative to the magnitude of the
// point estimate — the quantity adaptive stopping rules drive below a
// target. It is +Inf when the point estimate is zero (no relative
// precision is achievable against a zero target).
func (iv Interval) RelHalfWidth() float64 {
	if iv.Point == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(iv.Point)
}

// Contains reports whether x lies inside the interval (inclusive).
//
//detlint:allow unused -- the CI coverage tests and mpibench's adaptive-estimate tests check intervals with it
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// String formats the interval compactly for logs.
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] @%g%%", iv.Point, iv.Lo, iv.Hi, iv.Level*100)
}

// Overlap reports whether two intervals share any point. Disjoint
// intervals are the CI-overlap regression gate's failure condition:
// when the baseline's and the current run's intervals do not even
// touch, the difference is larger than both measurements' noise.
func Overlap(a, b Interval) bool { return a.Lo <= b.Hi && b.Lo <= a.Hi }

// invNorm returns the standard normal quantile function Φ⁻¹(p) using
// Acklam's rational approximation (relative error < 1.15e-9), which is
// far more precision than any benchmark CI needs.
func invNorm(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	const (
		a1    = -3.969683028665376e+01
		a2    = 2.209460984245205e+02
		a3    = -2.759285104469687e+02
		a4    = 1.383577518672690e+02
		a5    = -3.066479806614716e+01
		a6    = 2.506628277459239e+00
		b1    = -5.447609879822406e+01
		b2    = 1.615858368580409e+02
		b3    = -1.556989798598866e+02
		b4    = 6.680131188771972e+01
		b5    = -1.328068155288572e+01
		c1    = -7.784894002430293e-03
		c2    = -3.223964580411365e-01
		c3    = -2.400758277161838e+00
		c4    = -2.549732539343734e+00
		c5    = 4.374664141464968e+00
		c6    = 2.938163982698783e+00
		d1    = 7.784695709041462e-03
		d2    = 3.224671290700398e-01
		d3    = 2.445134137142996e+00
		d4    = 3.754408661907416e+00
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// tQuantile approximates the Student-t quantile with nu degrees of
// freedom via the Cornish-Fisher expansion around the normal quantile.
// For nu >= 3 the approximation is within ~1% of the exact value, which
// is ample for CI half-widths; for nu <= 2 it is clamped to the exact
// values at the common 95% level's neighbourhood by widening toward the
// known heavy tails.
func tQuantile(p float64, nu int) float64 {
	z := invNorm(p)
	if nu <= 0 {
		return z
	}
	n := float64(nu)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	t := z +
		(z3+z)/(4*n) +
		(5*z5+16*z3+3*z)/(96*n*n) +
		(3*z7+19*z5+17*z3-15*z)/(384*n*n*n)
	if nu == 1 {
		// Cauchy tails: the expansion underestimates badly; use the
		// exact t₁ quantile tan(π(p-1/2)).
		return math.Tan(math.Pi * (p - 0.5))
	}
	if nu == 2 {
		// Exact t₂ quantile: z has a closed form.
		a := 2*p - 1
		return a * math.Sqrt(2/(1-a*a))
	}
	return t
}

// StudentCI returns the Student-t confidence interval on the mean —
// the right choice for the handful-of-replications cells the benchmark
// ledger stores (n of 3–10), where the normal interval is too narrow.
func StudentCI(s Summary, level float64) Interval {
	return meanCI(s, level, tQuantile((1+level)/2, int(s.N)-1))
}

func meanCI(s Summary, level, crit float64) Interval {
	iv := Interval{Point: s.Mean, Lo: s.Mean, Hi: s.Mean, Level: level, N: s.N}
	if s.N < 2 {
		return iv
	}
	// Sample (n-1) variance: CI machinery estimates, it does not describe.
	se := math.Sqrt(s.M2 / float64(s.N-1) / float64(s.N))
	iv.Lo = s.Mean - crit*se
	iv.Hi = s.Mean + crit*se
	return iv
}

// QuantileSorted returns the q-quantile of an ascending-sorted sample
// using linear interpolation between order statistics (type 7, the R
// and NumPy default). It panics on an empty sample.
//
//detlint:hotpath
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	i := int(h)
	frac := h - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Median returns the middle of an ascending-sorted sample.
//
//detlint:hotpath
func Median(sorted []float64) float64 { return QuantileSorted(sorted, 0.5) }

// TrimmedMean returns the mean of an ascending-sorted sample after
// discarding fraction trim from each end — a location estimate that a
// few retransmission-timeout outliers cannot drag. trim is clamped to
// [0, 0.5); trim = 0.5 would leave nothing, so it degrades to the
// median.
//
//detlint:hotpath
func TrimmedMean(sorted []float64, trim float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: trimmed mean of empty sample")
	}
	if trim < 0 {
		trim = 0
	}
	if trim >= 0.5 {
		return Median(sorted)
	}
	cut := int(trim * float64(n))
	if 2*cut >= n {
		return Median(sorted)
	}
	sum := 0.0
	for _, x := range sorted[cut : n-cut] {
		sum += x
	}
	return sum / float64(n-2*cut)
}

// MAD returns the median absolute deviation from the median of an
// ascending-sorted sample — the robust scale companion to Median.
// scratch must have capacity for len(sorted) values and is overwritten;
// pass a reused buffer to keep the call allocation-free. Multiply by
// 1.4826 for a consistent estimate of a normal σ.
//
//detlint:hotpath
func MAD(sorted []float64, scratch []float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: MAD of empty sample")
	}
	med := Median(sorted)
	scratch = scratch[:0]
	for _, x := range sorted {
		scratch = append(scratch, math.Abs(x-med))
	}
	sort.Float64s(scratch)
	return Median(scratch)
}

// Bootstrap computes percentile-bootstrap confidence intervals on
// quantiles. The struct owns its scratch buffers, so after the first
// call on a given sample size further CIs allocate nothing — the
// property the adaptive stopping loop's per-batch re-checks rely on. It is not safe for
// concurrent use; give each goroutine its own.
type Bootstrap struct {
	resamples int
	sorted    []float64 // ascending copy of the input sample
	resample  []float64 // one bootstrap draw
	stat      []float64 // per-resample statistic values
}

// NewBootstrap returns a Bootstrap drawing the given number of
// resamples per interval (minimum 50; 200 is a sound default for 95%
// percentile intervals on benchmark-sized samples).
func NewBootstrap(resamples int) *Bootstrap {
	if resamples < 50 {
		resamples = 50
	}
	return &Bootstrap{resamples: resamples}
}

// QuantileCI returns the percentile-bootstrap interval on the
// q-quantile — the median for q = 0.5. Quantile CIs have no useful
// closed form for arbitrary distributions, which is exactly why the
// bootstrap earns its keep here.
//
//detlint:hotpath
func (b *Bootstrap) QuantileCI(xs []float64, q, level float64, r Rand) Interval {
	b.prepare(xs)
	point := QuantileSorted(b.sorted, q)
	for k := 0; k < b.resamples; k++ {
		b.draw(r)
		b.stat[k] = QuantileSorted(b.resample, q)
	}
	return b.finish(point, level, uint64(len(xs)))
}

// prepare sizes the scratch buffers and sorts a copy of the input.
func (b *Bootstrap) prepare(xs []float64) {
	if len(xs) == 0 {
		panic("stats: bootstrap over empty sample")
	}
	if cap(b.sorted) < len(xs) {
		b.sorted = make([]float64, 0, len(xs))
		b.resample = make([]float64, 0, len(xs))
	}
	if cap(b.stat) < b.resamples {
		b.stat = make([]float64, b.resamples)
	}
	b.sorted = append(b.sorted[:0], xs...)
	sort.Float64s(b.sorted)
	b.stat = b.stat[:b.resamples]
}

// draw fills b.resample with one bootstrap draw (sampling with
// replacement from the sorted sample) and sorts it.
//
//detlint:hotpath
func (b *Bootstrap) draw(r Rand) {
	n := len(b.sorted)
	b.resample = b.resample[:n]
	for i := range b.resample {
		// Index via Float64 rather than an Intn method so any Rand
		// implementation (sim.RNG included) works; the bias is < 2⁻53.
		b.resample[i] = b.sorted[int(r.Float64()*float64(n))]
	}
	sort.Float64s(b.resample)
}

// finish turns the resample statistics into a percentile interval.
func (b *Bootstrap) finish(point, level float64, n uint64) Interval {
	sort.Float64s(b.stat)
	alpha := (1 - level) / 2
	return Interval{
		Point: point,
		Lo:    QuantileSorted(b.stat, alpha),
		Hi:    QuantileSorted(b.stat, 1-alpha),
		Level: level,
		N:     n,
	}
}

// DriftStat returns the Welch t-statistic between the first and second
// half of a series — the warmup-stationarity check. A benchmark whose
// warmup phase was long enough produces a stationary measured series;
// when caches, routes or congestion state are still settling, the early
// half's mean differs from the late half's by more than the sampling
// noise explains and the statistic grows without bound. Values below
// ~4 are unremarkable for autocorrelated benchmark series; a
// deliberately drifting series reaches the tens. Series shorter than 8
// observations return 0 (too little data to call anything drift).
func DriftStat(xs []float64) float64 {
	n := len(xs)
	if n < 8 {
		return 0
	}
	var a, b Summary
	half := n / 2
	for _, x := range xs[:half] {
		a.Add(x)
	}
	for _, x := range xs[half:] {
		b.Add(x)
	}
	// Welch standard error from sample variances.
	sea := a.M2 / float64(a.N-1) / float64(a.N)
	seb := b.M2 / float64(b.N-1) / float64(b.N)
	se := math.Sqrt(sea + seb)
	if se == 0 {
		if a.Mean == b.Mean {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b.Mean-a.Mean) / se
}
