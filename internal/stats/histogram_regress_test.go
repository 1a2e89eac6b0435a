package stats

import (
	"math"
	"sync"
	"testing"
)

// TestSampleClampAtUpperEdge pins the out-of-range fix: a uniform draw at
// or just below 1 must select the last bin, never index past the
// cumulative table. Rand's contract is [0,1), but generators have shipped
// with off-by-one-ulp bugs that return exactly 1.0, and before the clamp
// that panicked with an index out of range inside Sample.
func TestSampleClampAtUpperEdge(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 3; i++ {
		h.Add(float64(i) + 0.5)
	}

	// Draw 1: bin selection (the overflowing value). Draw 2: intra-bin
	// jitter at 0, so the result is exactly the last bin's lower edge.
	r := &testRand{u: []float64{1.0, 0}}
	got := h.Sample(r)
	if got != 2 {
		t.Errorf("Sample with Float64()=1.0 = %v, want 2 (last bin's lower edge)", got)
	}

	// The largest in-contract value must land in the last bin too.
	r = &testRand{u: []float64{math.Nextafter(1, 0), 0}}
	got = h.Sample(r)
	if got != 2 {
		t.Errorf("Sample with Float64()=1-ulp = %v, want 2", got)
	}
}

// TestSampleClampSingleObservation: the degenerate one-count histogram is
// the easiest place for the clamp to go wrong (N-1 == 0).
func TestSampleClampSingleObservation(t *testing.T) {
	h := NewHistogram(1)
	h.Add(7.25)
	r := &testRand{u: []float64{1.0, 0.25}}
	if got := h.Sample(r); got != 7.25 {
		t.Errorf("Sample = %v, want 7.25", got)
	}
}

// TestFreezeEmptyHistogramConcurrent pins the empty-rebuild fix: Freeze
// on a histogram with no observations must still leave the memo built, so
// later read-only queries never mutate shared state. Run with -race; the
// pre-fix code re-entered rebuild() (a write) on every query.
func TestFreezeEmptyHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1e-6)
	h.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if got := h.Quantile(0.5); got != 0 {
					t.Errorf("Quantile(0.5) on empty = %v, want 0", got)
				}
				if got := h.CDF(1); got != 0 {
					t.Errorf("CDF(1) on empty = %v, want 0", got)
				}
				if bins := h.Bins(); len(bins) != 0 {
					t.Errorf("Bins() on empty has %d entries", len(bins))
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrozenQueriesZeroAlloc guards the fast paths: once frozen, Sample
// and Quantile run without heap allocations (no sort.Search closures, no
// memo rebuilds).
func TestFrozenQueriesZeroAlloc(t *testing.T) {
	h := NewHistogram(1e-6)
	rng := newXorRand(42)
	for i := 0; i < 10000; i++ {
		h.Add(50e-6 + 10e-6*rng.NormFloat64())
	}
	h.Freeze()
	allocs := testing.AllocsPerRun(200, func() {
		h.Sample(rng)
		h.Quantile(0.99)
		h.CDF(55e-6)
	})
	if allocs != 0 {
		t.Errorf("frozen Sample/Quantile/CDF allocate %v objects/op, want 0", allocs)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(1e-6)
	rng := newXorRand(42)
	// Pre-touch the typical bin range so map growth settles.
	for i := 0; i < 1000; i++ {
		h.Add(50e-6 + 10e-6*rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(50e-6 + 10e-6*rng.NormFloat64())
	}
}

func BenchmarkHistogramSample(b *testing.B) {
	h := NewHistogram(1e-6)
	rng := newXorRand(42)
	for i := 0; i < 10000; i++ {
		h.Add(50e-6 + 10e-6*rng.NormFloat64())
	}
	h.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sample(rng)
	}
}

// longTailHistogram is shaped like a predict-database entry: 2560
// one-way times in 5 µs bins, a normal body 10 µs wide and a 10%
// exponential tail whose scale sets how many bins are non-empty.
func longTailHistogram(rng *xorRand, tailScale float64) *Histogram {
	h := NewHistogram(5e-6)
	for i := 0; i < 2560; i++ {
		x := 300e-6 + 10e-6*rng.NormFloat64()
		if i%10 == 0 {
			x += -tailScale * math.Log(1-rng.Float64())
		}
		h.Add(x)
	}
	h.Freeze()
	return h
}

// quantileSink keeps the benchmarked Quantile calls live.
var quantileSink float64

// BenchmarkHistogramQuantile inverts a fresh uniform q per call, as a
// PEVPM draw does, so every bucket and scan length is taken.
func BenchmarkHistogramQuantile(b *testing.B) {
	body := NewHistogram(1e-6)
	rng := newXorRand(42)
	for i := 0; i < 10000; i++ {
		body.Add(50e-6 + 10e-6*rng.NormFloat64())
	}
	body.Freeze()
	cases := []struct {
		name string
		h    *Histogram
	}{
		{"normal", body},
		{"tail30", longTailHistogram(rng, 25e-6)},
		{"tail250", longTailHistogram(rng, 4e-3)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quantileSink = c.h.Quantile(rng.Float64())
			}
			b.ReportMetric(float64(len(c.h.Bins())), "bins")
		})
	}
}
