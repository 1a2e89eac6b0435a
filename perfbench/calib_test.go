package main

import (
	"math"
	"testing"
	"time"
)

func TestRefLoopDoesFixedWork(t *testing.T) {
	for i := 0; i < 2; i++ {
		if got := refLoop(); got != refChecksum {
			t.Fatalf("run %d: refLoop returned %#x, want %#x", i, got, refChecksum)
		}
	}
}

// calAt builds a calibrator from (start, length) pairs in ms.
func calAt(samples ...[2]float64) *calibrator {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	c := &calibrator{}
	for _, s := range samples {
		c.samples = append(c.samples, calSample{ms(s[0]), ms(s[0] + s[1])})
	}
	return c
}

func TestScaleUsesTheSamplesAroundACall(t *testing.T) {
	nominal := refNominal.Seconds() * 1e3 // ms
	// References of 6 ms at 0, 4 ms at 100, 2 ms at 300 (all in ms of
	// process CPU time).
	c := calAt([2]float64{0, 6}, [2]float64{100, 4}, [2]float64{300, 2})
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name   string
		t0, t1 float64
		ref    float64 // the local reference loop, ms
	}{
		{"between the first two", 10, 90, 5},
		{"between the last two", 110, 290, 3},
		{"spanning a sample", 10, 290, 4},
		{"after the last", 310, 400, 2},
		{"before the first", -50, -1, 6},
	} {
		got := c.scale(ms(tc.t0), ms(tc.t1))
		if want := nominal / tc.ref; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: scale %v, want %v (local reference %v ms)", tc.name, got, want, tc.ref)
		}
	}
	var none *calibrator
	if got := none.scale(0, ms(10)); got != 1 {
		t.Errorf("a nil calibrator scales by %v, want 1", got)
	}
}

// TestOpsPerCPUSecScalesEachRound checks the arithmetic: a round's CPU
// time is the sum of its calls' scaled CPU times, and the figure is the
// median of the rounds' rates.
func TestOpsPerCPUSecScalesEachRound(t *testing.T) {
	nominal := refNominal.Seconds() * 1e3
	// The host runs at nominal speed until 100 ms, then twice as slow.
	c := calAt([2]float64{0, nominal}, [2]float64{50, nominal}, [2]float64{100, 2 * nominal}, [2]float64{500, 2 * nominal})
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	p := &pass{cal: c, roundOps: []float64{10, 10, 30}}
	p.calls = []call{
		{ms(10), ms(30), 0}, {ms(30), ms(40), 0}, // round 0: 30 ms at nominal speed
		{ms(110), ms(170), 1}, // round 1: 60 ms measured, 30 ms scaled
		{ms(200), ms(380), 2}, // round 2: 180 ms measured, 90 ms scaled
	}
	want := []float64{20, 10, 30, 90}
	for i, got := range p.callSeconds() {
		if math.Abs(got*1e3-want[i]) > 1e-6 {
			t.Errorf("call %d: %v ms scaled, want %v", i, got*1e3, want[i])
		}
	}
	// Rates 10/0.03, 10/0.03 and 30/0.09 ops per second: all 333.3.
	if got := p.opsPerCPUSec(); math.Abs(got-1000.0/3) > 1e-6 {
		t.Errorf("ops per CPU second %v, want 333.33", got)
	}
	p.cal = nil
	// Unscaled: 10/0.03, 10/0.06, 30/0.18 → median 166.7.
	if got := p.opsPerCPUSec(); math.Abs(got-1000.0/6) > 1e-6 {
		t.Errorf("unscaled ops per CPU second %v, want 166.67", got)
	}
}
