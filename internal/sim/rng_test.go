package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	e := NewEngine(7)
	a, b := e.RNG("nic0"), e.RNG("nic1")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical draws across named streams", same)
	}
	if e.RNG("nic0") != a {
		t.Error("RNG(name) should return the same stream on reuse")
	}
}

func TestEngineSeedReproducibility(t *testing.T) {
	draw := func(seed uint64) []float64 {
		e := NewEngine(seed)
		r := e.RNG("x")
		out := make([]float64, 100)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	a, b := draw(123), draw(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same engine seed diverged at %d", i)
		}
	}
	c := draw(124)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := NewRNG(2)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.NormFloat64()
		sum += f
		sq += f * f
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(5)
	n := 100001
	draws := make([]float64, n)
	for i := range draws {
		draws[i] = r.LogNormal(math.Log(250e-6), 0.3)
	}
	// Median of a lognormal is exp(mu).
	count := 0
	for _, d := range draws {
		if d < 250e-6 {
			count++
		}
	}
	frac := float64(count) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(6)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamSeedDistinct(t *testing.T) {
	names := []string{"a", "b", "ab", "ba", "nic0", "nic1", "", "x"}
	seen := map[uint64]string{}
	for _, n := range names {
		s := streamSeed(99, n)
		if prev, ok := seen[s]; ok {
			t.Errorf("streamSeed collision: %q and %q", prev, n)
		}
		seen[s] = n
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(8)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit rate = %v", frac)
	}
}
