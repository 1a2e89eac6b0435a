package stats

import (
	"math"
	"sort"
	"testing"
)

func TestIntervalGeometry(t *testing.T) {
	iv := Interval{Point: 10, Lo: 8, Hi: 14, Level: 0.95, N: 50}
	if got := iv.HalfWidth(); got != 3 {
		t.Errorf("HalfWidth = %v, want 3", got)
	}
	if got := iv.RelHalfWidth(); got != 0.3 {
		t.Errorf("RelHalfWidth = %v, want 0.3", got)
	}
	if !iv.Contains(8) || !iv.Contains(14) || iv.Contains(7.99) {
		t.Error("Contains bounds wrong")
	}
	zero := Interval{Point: 0, Lo: -1, Hi: 1}
	if !math.IsInf(zero.RelHalfWidth(), 1) {
		t.Error("RelHalfWidth of zero point should be +Inf")
	}
}

func TestOverlap(t *testing.T) {
	a := Interval{Lo: 1, Hi: 3}
	for _, tc := range []struct {
		b    Interval
		want bool
	}{
		{Interval{Lo: 2, Hi: 4}, true}, // partial overlap
		{Interval{Lo: 3, Hi: 5}, true}, // touching endpoints count
		{Interval{Lo: 3.01, Hi: 5}, false},
		{Interval{Lo: 0, Hi: 0.5}, false},
		{Interval{Lo: 0, Hi: 10}, true}, // containment
	} {
		if got := Overlap(a, tc.b); got != tc.want {
			t.Errorf("Overlap(%v, %v) = %v, want %v", a, tc.b, got, tc.want)
		}
		if got := Overlap(tc.b, a); got != tc.want {
			t.Errorf("Overlap is not symmetric for %v", tc.b)
		}
	}
}

// TestInvNorm pins the normal quantile against textbook values.
func TestInvNorm(t *testing.T) {
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99998}, // Φ(1) ≈ 0.84134
		{0.001, -3.090232},
	} {
		if got := invNorm(tc.p); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("invNorm(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsInf(invNorm(0), -1) || !math.IsInf(invNorm(1), 1) {
		t.Error("invNorm endpoints should be infinite")
	}
	if !math.IsNaN(invNorm(-0.1)) || !math.IsNaN(invNorm(1.1)) {
		t.Error("invNorm outside [0,1] should be NaN")
	}
}

// TestTQuantile checks the Student-t critical values small-n mean CIs
// hinge on (exact closed forms at ν=1,2; tables above).
func TestTQuantile(t *testing.T) {
	for _, tc := range []struct {
		nu   int
		want float64 // t_{0.975, nu}
		tol  float64
	}{
		{1, 12.706, 0.01},
		{2, 4.303, 0.01},
		{4, 2.776, 0.03},
		{9, 2.262, 0.01},
		{29, 2.045, 0.01},
		{200, 1.972, 0.01},
	} {
		if got := tQuantile(0.975, tc.nu); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("tQuantile(0.975, %d) = %v, want %v", tc.nu, got, tc.want)
		}
	}
}

func TestMeanCIs(t *testing.T) {
	var s Summary
	for _, x := range []float64{9, 10, 11, 10, 9, 11, 10, 10} {
		s.Add(x)
	}
	n := meanCI(s, 0.95, invNorm(0.975)) // the normal-theory interval
	st := StudentCI(s, 0.95)
	if n.Point != s.Mean || st.Point != s.Mean {
		t.Error("CI point should be the mean")
	}
	if !(n.Lo < s.Mean && s.Mean < n.Hi) {
		t.Errorf("normal CI %v does not bracket the mean", n)
	}
	// t critical value > z critical value, so the Student interval is wider.
	if st.HalfWidth() <= n.HalfWidth() {
		t.Errorf("Student CI (%v) should be wider than normal CI (%v)", st, n)
	}
	// A single observation yields a degenerate interval, not NaN.
	var one Summary
	one.Add(5)
	iv := StudentCI(one, 0.95)
	if iv.Lo != 5 || iv.Hi != 5 || iv.Point != 5 {
		t.Errorf("single-sample CI = %v, want degenerate at 5", iv)
	}
}

func TestQuantileSortedAndRobustEstimators(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := QuantileSorted(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := QuantileSorted(xs, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := QuantileSorted(xs, 0.25); math.Abs(got-3.25) > 1e-12 {
		t.Errorf("q0.25 = %v, want 3.25 (type 7)", got)
	}

	// An enormous outlier moves the mean but not the robust estimators.
	out := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1e6}
	if got := Median(out); got != 5.5 {
		t.Errorf("median with outlier = %v, want 5.5", got)
	}
	if got := TrimmedMean(out, 0.1); got != 5.5 {
		t.Errorf("10%% trimmed mean with outlier = %v, want 5.5", got)
	}
	scratch := make([]float64, 0, len(out))
	if got := MAD(out, scratch); got != 2.5 {
		t.Errorf("MAD with outlier = %v, want 2.5", got)
	}
	// Degenerate trims fall back to the median rather than panicking.
	if got := TrimmedMean(xs, 0.5); got != 5.5 {
		t.Errorf("trim=0.5 = %v, want median", got)
	}
	if got := TrimmedMean(xs, -1); got != 5.5 {
		t.Errorf("negative trim = %v, want plain mean 5.5", got)
	}
}

func uniformSample(r Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	return xs
}

// TestBootstrapDeterminism: equal seeds must give bit-identical
// intervals — the property that keeps mpibench CI output byte-identical
// at any sweep worker count (each cell derives its Rand from
// sim.SubSeed, never from shared state).
func TestBootstrapDeterminism(t *testing.T) {
	run := func() Interval {
		r := newXorRand(42)
		xs := uniformSample(r, 60)
		b := NewBootstrap(200)
		return b.QuantileCI(xs, 0.5, 0.95, r)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed bootstrap intervals differ: %v vs %v", a, b)
	}
	// The input sample's order must not matter (resampling is from the
	// empirical distribution): a shuffled copy gives the same interval.
	r := newXorRand(42)
	xs := uniformSample(r, 60)
	shuffled := append([]float64(nil), xs...)
	sort.Float64s(shuffled)
	b1 := NewBootstrap(200).QuantileCI(xs, 0.5, 0.95, newXorRand(7))
	b2 := NewBootstrap(200).QuantileCI(shuffled, 0.5, 0.95, newXorRand(7))
	if b1 != b2 {
		t.Errorf("sample order changed the interval: %v vs %v", b1, b2)
	}
}

func TestBootstrapBracketsPoint(t *testing.T) {
	r := newXorRand(3)
	xs := uniformSample(r, 100)
	b := NewBootstrap(200)
	for _, iv := range []Interval{
		b.QuantileCI(xs, 0.5, 0.95, r),
		b.QuantileCI(xs, 0.9, 0.95, r),
	} {
		if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
			t.Errorf("interval %v does not bracket its point estimate", iv)
		}
		if iv.HalfWidth() <= 0 {
			t.Errorf("interval %v has no width", iv)
		}
		if iv.N != 100 || iv.Level != 0.95 {
			t.Errorf("interval %v metadata wrong", iv)
		}
	}
	// Narrower level, narrower interval.
	wide := b.QuantileCI(xs, 0.5, 0.99, newXorRand(9))
	narrow := b.QuantileCI(xs, 0.5, 0.80, newXorRand(9))
	if narrow.HalfWidth() >= wide.HalfWidth() {
		t.Errorf("80%% interval (%v) should be narrower than 99%% (%v)", narrow, wide)
	}
}

// TestBootstrapCoverage: over many independent trials drawing from a
// known distribution, ~95% of nominal-95% CIs must contain the true
// quantile. Exact coverage for the median of Uniform(0,1) at n=80 is a
// few points below nominal (percentile bootstrap is first-order
// accurate), so the acceptance band is generous but would still catch a
// broken estimator (coverage near 0 or an interval that ignores q).
func TestBootstrapCoverage(t *testing.T) {
	const (
		trials = 200
		n      = 80
		level  = 0.95
	)
	b := NewBootstrap(200)
	hitsMedian := 0
	for trial := 0; trial < trials; trial++ {
		r := newXorRand(uint64(1000 + trial))
		xs := uniformSample(r, n)
		if b.QuantileCI(xs, 0.5, level, r).Contains(0.5) {
			hitsMedian++
		}
	}
	if cov := float64(hitsMedian) / trials; cov < 0.85 || cov > 0.999 {
		t.Errorf("median CI coverage = %.3f, want ≈0.95", cov)
	}
}

// TestStudentCICoverage does the same for the normal-theory interval on
// the mean of a normal sample, where 95% is the exact answer.
func TestStudentCICoverage(t *testing.T) {
	const trials = 400
	hits := 0
	for trial := 0; trial < trials; trial++ {
		r := newXorRand(uint64(5000 + trial))
		var s Summary
		for i := 0; i < 10; i++ {
			s.Add(3 + 2*r.NormFloat64())
		}
		if StudentCI(s, 0.95).Contains(3) {
			hits++
		}
	}
	if cov := float64(hits) / trials; cov < 0.89 || cov > 0.99 {
		t.Errorf("Student CI coverage = %.3f, want ≈0.95", cov)
	}
}

// TestBootstrapZeroAlloc guards the detlint hotpath contract: once the
// scratch buffers are warm, computing CIs allocates nothing — the
// adaptive stopping loop re-checks after every batch and must not churn
// the heap.
func TestBootstrapZeroAlloc(t *testing.T) {
	r := newXorRand(17)
	xs := uniformSample(r, 100)
	b := NewBootstrap(100)
	b.QuantileCI(xs, 0.5, 0.95, r) // warm the buffers
	if allocs := testing.AllocsPerRun(20, func() {
		b.QuantileCI(xs, 0.5, 0.95, r)
	}); allocs != 0 {
		t.Errorf("warm QuantileCI allocates %v/op, want 0", allocs)
	}

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	scratch := make([]float64, 0, len(sorted))
	if allocs := testing.AllocsPerRun(20, func() {
		Median(sorted)
		TrimmedMean(sorted, 0.1)
		MAD(sorted, scratch)
		QuantileSorted(sorted, 0.99)
	}); allocs != 0 {
		t.Errorf("warm estimators allocate %v/op, want 0", allocs)
	}
}

// TestDriftStat: a stationary series stays below the flag threshold, a
// deliberately drifting one (warmup leaking into measurement) is
// unmistakable.
func TestDriftStat(t *testing.T) {
	r := newXorRand(23)
	stationary := make([]float64, 200)
	for i := range stationary {
		stationary[i] = 100 + r.NormFloat64()
	}
	if d := DriftStat(stationary); d > 4 {
		t.Errorf("stationary series drift stat = %v, want < 4", d)
	}

	drifting := make([]float64, 200)
	for i := range drifting {
		// A 10% downward trend across the series — classic
		// insufficient-warmup shape.
		drifting[i] = 110 - 0.05*float64(i) + r.NormFloat64()
	}
	if d := DriftStat(drifting); d < 10 {
		t.Errorf("drifting series drift stat = %v, want > 10", d)
	}

	// Too-short and constant series report no drift.
	if d := DriftStat([]float64{1, 2, 3}); d != 0 {
		t.Errorf("short series drift = %v, want 0", d)
	}
	if d := DriftStat(make([]float64, 50)); d != 0 {
		t.Errorf("constant series drift = %v, want 0", d)
	}
	step := make([]float64, 50)
	for i := 25; i < 50; i++ {
		step[i] = 1
	}
	if d := DriftStat(step); !math.IsInf(d, 1) {
		t.Errorf("zero-variance step drift = %v, want +Inf", d)
	}
}
