package vclock

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestLocalClockOffsetAndSkew(t *testing.T) {
	c := NewLocalClock(5.0, 100e-6, 0, nil)
	at0 := c.Read(0)
	if at0 != 5.0 {
		t.Errorf("Read(0) = %v, want 5", at0)
	}
	at100 := c.Read(sim.TimeFromSeconds(100))
	// After 100 s the clock has gained 100·100µs = 10 ms.
	if math.Abs(at100-(105.0+0.01)) > 1e-9 {
		t.Errorf("Read(100s) = %v", at100)
	}
}

func TestLocalClockMonotone(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewLocalClock(0, -200e-6, 2e-6, e.RNG("jit"))
	prev := math.Inf(-1)
	for i := 0; i < 10000; i++ {
		v := c.Read(sim.Time(i) * sim.Time(sim.Microsecond))
		if v < prev {
			t.Fatalf("clock went backwards at step %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestNewClockSetSpread(t *testing.T) {
	e := sim.NewEngine(2)
	clocks := NewClockSet(e, 64, 2.0, 50e-6, 1e-6)
	if len(clocks) != 64 {
		t.Fatalf("len = %d", len(clocks))
	}
	distinct := map[float64]bool{}
	for _, c := range clocks {
		off, skew := c.TrueParams()
		if math.Abs(off) > 2.0 || math.Abs(skew) > 50e-6 {
			t.Errorf("clock params out of range: off=%v skew=%v", off, skew)
		}
		distinct[off] = true
	}
	if len(distinct) < 60 {
		t.Error("clock offsets suspiciously non-distinct")
	}
}

// synthesise generates probes between a drifting local clock and a
// reference clock across a network with base one-way delay plus noise.
func synthesise(t *testing.T, local *LocalClock, n int, spanSeconds, delay, noise float64, seed uint64) []Probe {
	t.Helper()
	rng := sim.NewRNG(seed)
	probes := make([]Probe, n)
	for i := range probes {
		trueSend := sim.TimeFromSeconds(float64(i) / float64(n) * spanSeconds)
		d1 := delay + noise*rng.Float64()
		d2 := delay + noise*rng.Float64()
		trueRemote := trueSend.Add(sim.DurationFromSeconds(d1))
		trueRecv := trueRemote.Add(sim.DurationFromSeconds(d2))
		probes[i] = Probe{
			LocalSend: local.Read(trueSend),
			Remote:    trueRemote.Seconds(), // reference = true time
			LocalRecv: local.Read(trueRecv),
		}
	}
	return probes
}

func TestEstimateRecoversOffsetAndSkew(t *testing.T) {
	local := NewLocalClock(-3.7, 42e-6, 0, nil)
	probes := synthesise(t, local, 200, 10, 90e-6, 40e-6, 1)
	corr, err := Estimate(probes)
	if err != nil {
		t.Fatal(err)
	}
	// Check correction quality where it matters: mapping local readings
	// back to reference time at several epochs.
	for _, trueT := range []float64{0, 2.5, 5, 9.9} {
		localReading := trueT*(1+42e-6) - 3.7
		global := corr.Global(localReading)
		if errAbs := math.Abs(global - trueT); errAbs > 20e-6 {
			t.Errorf("at t=%v: corrected error %.1f µs", trueT, errAbs*1e6)
		}
	}
	if corr.Residual > 20e-6 {
		t.Errorf("residual %.1f µs too large", corr.Residual*1e6)
	}
}

func TestEstimateFiltersHighRTTProbes(t *testing.T) {
	local := NewLocalClock(1.0, 0, 0, nil)
	probes := synthesise(t, local, 100, 5, 90e-6, 5e-6, 2)
	// Poison some probes with huge asymmetric queueing delay.
	rng := sim.NewRNG(3)
	for i := 0; i < 30; i++ {
		k := rng.Intn(len(probes))
		probes[k].LocalRecv += 0.01 // 10 ms of queueing on the return path
	}
	corr, err := Estimate(probes)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Probes > 100-20 {
		t.Errorf("filtering kept %d probes, should have dropped the poisoned ones", corr.Probes)
	}
	if errAbs := math.Abs(corr.Global(1.0) - 0.0); errAbs > 20e-6 {
		t.Errorf("offset error %.1f µs despite filtering", errAbs*1e6)
	}
}

func TestEstimateSubLatencyAccuracy(t *testing.T) {
	// The headline requirement: sync error must be far below the ~200 µs
	// communication times being measured, even with realistic jitter.
	e := sim.NewEngine(4)
	local := NewLocalClock(0.83, -31e-6, 1e-6, e.RNG("jit"))
	probes := synthesise(t, local, 400, 20, 95e-6, 30e-6, 5)
	corr, err := Estimate(probes)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, trueT := range []float64{0, 5, 10, 15, 20} {
		localReading := trueT*(1-31e-6) + 0.83
		if errAbs := math.Abs(corr.Global(localReading) - trueT); errAbs > worst {
			worst = errAbs
		}
	}
	if worst > 25e-6 {
		t.Errorf("worst sync error %.1f µs, want well under one message latency", worst*1e6)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(nil); !errors.Is(err, ErrTooFewProbes) {
		t.Errorf("nil probes: %v", err)
	}
	if _, err := Estimate([]Probe{{0, 1, 2}}); !errors.Is(err, ErrTooFewProbes) {
		t.Errorf("one probe: %v", err)
	}
	bad := []Probe{{10, 5, 9}, {20, 15, 19}} // negative RTTs
	if _, err := Estimate(bad); err == nil {
		t.Error("all-negative RTTs should fail")
	}
}

func TestEstimateDegenerateSameInstant(t *testing.T) {
	// All probes at one instant: offset is still recoverable, skew is 0.
	probes := []Probe{
		{LocalSend: 1.0, Remote: 3.0001, LocalRecv: 1.0002},
		{LocalSend: 1.0, Remote: 3.0001, LocalRecv: 1.0002},
	}
	corr, err := Estimate(probes)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Skew != 0 {
		t.Errorf("skew = %v, want 0 for degenerate probes", corr.Skew)
	}
	if math.Abs(corr.Global(1.0)-3.0) > 1e-3 {
		t.Errorf("offset not recovered: %v", corr.Global(1.0))
	}
}

// TestIdentityCorrection: the zero Correction, the reference node's own,
// maps every local reading to itself.
func TestIdentityCorrection(t *testing.T) {
	var id Correction
	for _, v := range []float64{0, 1.5, 1e6} {
		if id.Global(v) != v {
			t.Errorf("Correction{}.Global(%v) = %v", v, id.Global(v))
		}
	}
}
