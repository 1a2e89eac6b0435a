package stats

import (
	"math"
	"testing"
)

func sampleMean(s Sampler, r Rand, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += s.Sample(r)
	}
	return total / float64(n)
}

// Uniform draws uniformly from [Lo, Hi): the known distribution the
// KS-distance and distribution tests check against.
type Uniform struct{ Lo, Hi float64 }

// Sample draws from the interval.
func (u Uniform) Sample(r Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// MinBound returns the lower edge.
func (u Uniform) MinBound() float64 { return u.Lo }

// CDF of the uniform distribution.
func (u Uniform) CDF(x float64) float64 {
	if x <= u.Lo {
		return 0
	}
	if x >= u.Hi {
		return 1
	}
	return (x - u.Lo) / (u.Hi - u.Lo)
}

func TestConstant(t *testing.T) {
	c := Constant(42)
	r := newXorRand(1)
	if c.Sample(r) != 42 || c.Mean() != 42 || c.MinBound() != 42 {
		t.Error("constant sampler broken")
	}
	if c.CDF(41.9) != 0 || c.CDF(42) != 1 {
		t.Error("constant CDF broken")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 6}
	r := newXorRand(2)
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of range", v)
		}
	}
	if u.Mean() != 4 {
		t.Errorf("Mean = %v", u.Mean())
	}
	if got := sampleMean(u, r, 50000); math.Abs(got-4) > 0.05 {
		t.Errorf("sample mean = %v", got)
	}
	if u.CDF(2) != 0 || u.CDF(6) != 1 || u.CDF(4) != 0.5 {
		t.Error("uniform CDF broken")
	}
}

func TestShiftedLogNormal(t *testing.T) {
	d := ShiftedLogNormal{Shift: 1e-4, Mu: math.Log(5e-4), Sigma: 0.5}
	r := newXorRand(3)
	for i := 0; i < 1000; i++ {
		if v := d.Sample(r); v <= d.Shift {
			t.Fatalf("sample %v at or below shift", v)
		}
	}
	if got := sampleMean(d, r, 200000); !almostEqual(got, d.Mean(), 0.02) {
		t.Errorf("sample mean %v vs analytic %v", got, d.Mean())
	}
	// CDF sanity: median of lognormal part at shift+exp(mu).
	if got := d.CDF(d.Shift + 5e-4); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF at median = %v", got)
	}
	if d.CDF(d.Shift) != 0 {
		t.Error("CDF at shift should be 0")
	}
}

func TestShiftedExp(t *testing.T) {
	d := ShiftedExp{Shift: 2, Scale: 3}
	r := newXorRand(4)
	if got := sampleMean(d, r, 200000); !almostEqual(got, 5, 0.02) {
		t.Errorf("sample mean %v, want 5", got)
	}
	if got := d.CDF(2 + 3*math.Ln2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF at median = %v", got)
	}
}

func TestWeibull(t *testing.T) {
	d := Weibull{Shift: 1, Shape: 2, Scale: 4}
	r := newXorRand(5)
	if got := sampleMean(d, r, 200000); !almostEqual(got, d.Mean(), 0.02) {
		t.Errorf("sample mean %v vs analytic %v", got, d.Mean())
	}
	// At x = shift+scale, CDF = 1 - 1/e regardless of shape.
	if got := d.CDF(5); math.Abs(got-(1-1/math.E)) > 1e-9 {
		t.Errorf("CDF at scale point = %v", got)
	}
	// Shape 1 degenerates to exponential.
	w1 := Weibull{Shift: 0, Shape: 1, Scale: 2}
	e1 := ShiftedExp{Shift: 0, Scale: 2}
	for x := 0.5; x < 10; x += 0.5 {
		if math.Abs(w1.CDF(x)-e1.CDF(x)) > 1e-12 {
			t.Fatalf("Weibull(k=1) != Exp at %v", x)
		}
	}
}

func TestSamplerInterfaces(t *testing.T) {
	// Every distribution with an analytic CDF must satisfy Dist, and
	// puts no mass below its MinBound.
	for _, d := range []Dist{
		Constant(1),
		Uniform{0, 1},
		ShiftedLogNormal{0, 0, 1},
		ShiftedExp{0, 1},
		Weibull{0, 2, 1},
	} {
		prev := -0.1
		for x := -1.0; x < 10; x += 0.25 {
			c := d.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				t.Fatalf("%T: CDF not monotone in [0,1] at %v", d, x)
			}
			prev = c
		}
		if c := d.CDF(d.MinBound() - 1e-9); c != 0 {
			t.Errorf("%T: CDF just below MinBound %v is %v, want 0", d, d.MinBound(), c)
		}
	}
}
