package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

type testRand struct {
	u, n []float64
	i, j int
}

func (r *testRand) Float64() float64 {
	v := r.u[r.i%len(r.u)]
	r.i++
	return v
}
func (r *testRand) NormFloat64() float64 {
	v := r.n[r.j%len(r.n)]
	r.j++
	return v
}

// xorRand is a tiny deterministic Rand for tests, independent of sim.
type xorRand struct {
	s     uint64
	gauss float64
	have  bool
}

func newXorRand(seed uint64) *xorRand { return &xorRand{s: seed ^ 0x9e3779b97f4a7c15} }

func (r *xorRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
func (r *xorRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *xorRand) NormFloat64() float64 {
	if r.have {
		r.have = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.have = true
		return u * f
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1.0)
	for _, v := range []float64{0.5, 1.5, 1.7, 2.2, 2.4, 2.9} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d", h.Count())
	}
	bins := h.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %+v", bins)
	}
	wantCounts := []uint64{1, 2, 3}
	for i, b := range bins {
		if b.Count != wantCounts[i] {
			t.Errorf("bin %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if h.Min() != 0.5 || h.Max() != 2.9 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramExactMeanNotBinned(t *testing.T) {
	h := NewHistogram(1000) // one huge bin
	h.Add(1)
	h.Add(2)
	if h.Mean() != 1.5 {
		t.Errorf("Mean = %v, should be exact regardless of binning", h.Mean())
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0.25)
	r := newXorRand(1)
	for i := 0; i < 10000; i++ {
		h.Add(r.Float64() * 10)
	}
	total := 0.0
	for _, b := range h.Bins() {
		total += b.Density * (b.Hi - b.Lo)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("PDF integrates to %v", total)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1.0)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5) // one observation per bin 0..99
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 1 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0); q != 0.5 {
		t.Errorf("q0 = %v, want min", q)
	}
	if q := h.Quantile(1); q != 99.5 {
		t.Errorf("q1 = %v, want max", q)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram(0.5)
	r := newXorRand(2)
	for i := 0; i < 5000; i++ {
		h.Add(r.Float64()*4 + 1)
	}
	prev := -1.0
	for x := 0.0; x < 6; x += 0.1 {
		c := h.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range at %v: %v", x, c)
		}
		prev = c
	}
	if h.CDF(0.5) != 0 {
		t.Error("CDF below support should be 0")
	}
	if h.CDF(10) != 1 {
		t.Error("CDF above support should be 1")
	}
}

func TestHistogramSampleMatchesSource(t *testing.T) {
	src := NewHistogram(0.0001)
	r := newXorRand(3)
	for i := 0; i < 20000; i++ {
		// A bimodal distribution: body near 1ms plus outliers near 10ms.
		v := 0.001 + 0.0002*r.Float64()
		if r.Float64() < 0.05 {
			v = 0.010 + 0.001*r.Float64()
		}
		src.Add(v)
	}
	resampled := NewHistogram(0.0001)
	for i := 0; i < 20000; i++ {
		resampled.Add(src.Sample(r))
	}
	if !almostEqual(src.Mean(), resampled.Mean(), 0.05) {
		t.Errorf("resampled mean %v vs source %v", resampled.Mean(), src.Mean())
	}
	// The outlier mass must survive resampling.
	srcTail := 1 - src.CDF(0.005)
	resTail := 1 - resampled.CDF(0.005)
	if math.Abs(srcTail-resTail) > 0.01 {
		t.Errorf("tail mass: source %v, resampled %v", srcTail, resTail)
	}
}

func TestHistogramSampleIntraBinJitter(t *testing.T) {
	h := NewHistogram(1.0)
	h.Add(5.5)
	r := newXorRand(4)
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		v := h.Sample(r)
		if v < 5 || v >= 6 {
			t.Fatalf("sample %v outside the only bin [5,6)", v)
		}
		seen[v] = true
	}
	if len(seen) < 50 {
		t.Errorf("samples not jittered within bin: %d distinct values", len(seen))
	}
}

func TestHistogramMergeSameWidth(t *testing.T) {
	a, b := NewHistogram(1.0), NewHistogram(1.0)
	a.Add(1.5)
	b.Add(2.5)
	b.Add(1.2)
	a.Merge(b)
	if a.Count() != 3 {
		t.Errorf("Count = %d", a.Count())
	}
	bins := a.Bins()
	if len(bins) != 2 || bins[0].Count != 2 || bins[1].Count != 1 {
		t.Errorf("merged bins = %+v", bins)
	}
}

// TestHistogramRebin: merging into a histogram of another bin width
// rebins each observation at its bin midpoint.
func TestHistogramRebin(t *testing.T) {
	h := NewHistogram(0.1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) * 0.1)
	}
	coarse := NewHistogram(1.0)
	coarse.Merge(h)
	if coarse.Count() != 100 {
		t.Errorf("rebinned count = %d", coarse.Count())
	}
	if len(coarse.Bins()) >= len(h.Bins()) {
		t.Error("coarser binning should have fewer bins")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0.5)
	r := newXorRand(5)
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64() * 20)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Mean() != h.Mean() || back.binWidth != h.binWidth {
		t.Error("round trip lost summary data")
	}
	hb, bb := h.Bins(), back.Bins()
	if len(hb) != len(bb) {
		t.Fatalf("bin count changed: %d -> %d", len(hb), len(bb))
	}
	for i := range hb {
		if hb[i] != bb[i] {
			t.Fatalf("bin %d changed: %+v -> %+v", i, hb[i], bb[i])
		}
	}
}

func TestHistogramJSONRejectsBad(t *testing.T) {
	var h Histogram
	if err := json.Unmarshal([]byte(`{"bin_width":0}`), &h); err == nil {
		t.Error("zero bin width should fail")
	}
	if err := json.Unmarshal([]byte(`{"bin_width":1,"indices":[1],"counts":[]}`), &h); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func TestHistogramInvalidInputsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero width", func() { NewHistogram(0) })
	mustPanic("NaN add", func() { NewHistogram(1).Add(math.NaN()) })
	mustPanic("empty sample", func() { NewHistogram(1).Sample(newXorRand(1)) })
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	r := newXorRand(6)
	f := func(seed uint16) bool {
		h := NewHistogram(0.01)
		rr := newXorRand(uint64(seed) + 1)
		n := 50 + int(seed%200)
		for i := 0; i < n; i++ {
			h.Add(rr.Float64()*rr.Float64()*3 + 0.1)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-12 || v < h.Min()-1e-12 || v > h.Max()+1e-12 {
				return false
			}
			prev = v
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CDF(Quantile(q)) ≈ q for continuous-ish histograms.
func TestHistogramCDFQuantileInverse(t *testing.T) {
	h := NewHistogram(0.05)
	r := newXorRand(7)
	for i := 0; i < 20000; i++ {
		h.Add(r.Float64() * 5)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := h.CDF(h.Quantile(q))
		if math.Abs(got-q) > 0.02 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}
