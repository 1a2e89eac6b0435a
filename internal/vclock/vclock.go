// Package vclock models the clock problem MPIBench had to solve, and its
// solution. Each node of a real cluster has its own oscillator: readings
// differ by an arbitrary offset and drift apart at tens of microseconds
// per second. Measuring the one-way time of an individual MPI operation —
// the paper's key benchmarking contribution — therefore needs a globally
// synchronised clock: every node's readings must be mapped onto a common
// timebase with sub-communication-latency accuracy.
//
// The package provides drifting LocalClocks (the problem) and the
// ping-pong offset/skew estimator MPIBench uses (the solution): exchange
// timestamped probes with a reference node, keep the probes with the
// smallest round-trip times (least queueing, most symmetric), and fit
// offset-versus-time by linear regression so drift is corrected too.
package vclock

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// LocalClock converts true simulation time into the readings a node's
// own clock would produce: skewed in rate, shifted by an offset, and
// quantised/jittered at read time. Readings are forced monotone, as a
// sane OS clock would be.
type LocalClock struct {
	offset float64 // seconds added to true time at t=0
	skew   float64 // fractional rate error (+40e-6 = gains 40 µs/s)
	jitter float64 // uniform read noise magnitude (seconds)
	rng    interface{ Float64() float64 }
	last   float64
}

// NewLocalClock builds a clock with the given error parameters. rng may
// be nil when jitter is zero.
func NewLocalClock(offset, skew, jitter float64, rng interface{ Float64() float64 }) *LocalClock {
	if jitter > 0 && rng == nil {
		panic("vclock: jitter requires an rng")
	}
	return &LocalClock{offset: offset, skew: skew, jitter: jitter, rng: rng, last: math.Inf(-1)}
}

// Read returns the node's local reading (seconds) at true time t.
func (c *LocalClock) Read(t sim.Time) float64 {
	v := t.Seconds()*(1+c.skew) + c.offset
	if c.jitter > 0 {
		v += c.jitter * c.rng.Float64()
	}
	if v < c.last {
		v = c.last
	}
	c.last = v
	return v
}

// TrueParams exposes the clock's hidden parameters for test assertions.
//
//detlint:allow unused -- the clock-sync tests measure the estimated correction's error against it
func (c *LocalClock) TrueParams() (offset, skew float64) { return c.offset, c.skew }

// NewClockSet builds one local clock per node with realistic spreads:
// offsets uniform in ±maxOffset, skews uniform in ±maxSkew, and the
// given read jitter, all drawn from the engine's "vclock" stream.
func NewClockSet(e *sim.Engine, nodes int, maxOffset, maxSkew, jitter float64) []*LocalClock {
	rng := e.RNG("vclock")
	clocks := make([]*LocalClock, nodes)
	for i := range clocks {
		off := (2*rng.Float64() - 1) * maxOffset
		skew := (2*rng.Float64() - 1) * maxSkew
		clocks[i] = NewLocalClock(off, skew, jitter, rng)
	}
	return clocks
}

// Probe is one ping-pong clock exchange: the local node records its send
// and receive times and the reference node's timestamp in between.
type Probe struct {
	LocalSend float64 // local clock at probe departure
	Remote    float64 // reference clock when it handled the probe
	LocalRecv float64 // local clock at reply arrival
}

// RTT returns the probe's round-trip time on the local clock.
func (p Probe) RTT() float64 { return p.LocalRecv - p.LocalSend }

// Correction maps a node's local readings onto the reference timebase:
// global = local + Offset + Skew·(local − RefLocal).
type Correction struct {
	Offset   float64 // reference minus local at RefLocal
	Skew     float64 // drift rate of the correction (fraction)
	RefLocal float64 // local reading the fit is centred on
	Residual float64 // RMS of fit residuals — the sync error estimate
	Probes   int     // probes that survived RTT filtering
}

// Global converts a local reading to reference (global) time.
func (c Correction) Global(local float64) float64 {
	return local + c.Offset + c.Skew*(local-c.RefLocal)
}

// ErrTooFewProbes is returned when fewer than two usable probes remain
// after filtering.
var ErrTooFewProbes = errors.New("vclock: too few probes to estimate a correction")

// rttFilterFactor keeps probes whose RTT is within this factor of the
// minimum observed RTT. Tight RTTs mean symmetric, queue-free paths —
// exactly the probes whose midpoint estimates are trustworthy.
const rttFilterFactor = 1.10

// quartileFloor returns the fallback keep-count: a quarter of the
// probes, at least 2.
func quartileFloor(n int) int {
	w := n / 4
	if w < 2 {
		w = 2
	}
	return w
}

// Estimate fits a Correction from ping-pong probes against the reference
// node. At least two well-separated low-RTT probes are required; more
// probes and wider separation improve the skew estimate.
func Estimate(probes []Probe) (Correction, error) {
	if len(probes) < 2 {
		return Correction{}, fmt.Errorf("%w: got %d", ErrTooFewProbes, len(probes))
	}
	minRTT := math.Inf(1)
	for _, p := range probes {
		if r := p.RTT(); r >= 0 && r < minRTT {
			minRTT = r
		}
	}
	if math.IsInf(minRTT, 1) {
		return Correction{}, errors.New("vclock: all probes have negative RTT")
	}
	var kept []Probe
	for _, p := range probes {
		if r := p.RTT(); r >= 0 && r <= minRTT*rttFilterFactor {
			kept = append(kept, p)
		}
	}
	// Under heavy jitter the relative filter can reject almost
	// everything; fall back to the lowest-RTT quartile, which still
	// prefers symmetric queue-free exchanges.
	if want := quartileFloor(len(probes)); len(kept) < want {
		valid := make([]Probe, 0, len(probes))
		for _, p := range probes {
			if p.RTT() >= 0 {
				valid = append(valid, p)
			}
		}
		sort.Slice(valid, func(i, j int) bool { return valid[i].RTT() < valid[j].RTT() })
		if want > len(valid) {
			want = len(valid)
		}
		kept = valid[:want]
	}
	if len(kept) < 2 {
		return Correction{}, fmt.Errorf("%w: %d probes survived RTT filtering", ErrTooFewProbes, len(kept))
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].LocalSend < kept[j].LocalSend })

	// Offset sample per probe: reference time minus the local midpoint.
	// Fit offset(local) = a + b·(local − ref) by least squares.
	ref := (kept[0].LocalSend + kept[len(kept)-1].LocalRecv) / 2
	var sx, sy, sxx, sxy float64
	for _, p := range kept {
		mid := (p.LocalSend + p.LocalRecv) / 2
		x := mid - ref
		y := p.Remote - mid
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(kept))
	denom := n*sxx - sx*sx
	var a, b float64
	if denom == 0 {
		// All probes at one instant: offset only, no skew information.
		a, b = sy/n, 0
	} else {
		b = (n*sxy - sx*sy) / denom
		a = (sy - b*sx) / n
	}
	var ss float64
	for _, p := range kept {
		mid := (p.LocalSend + p.LocalRecv) / 2
		resid := (p.Remote - mid) - (a + b*(mid-ref))
		ss += resid * resid
	}
	return Correction{
		Offset:   a,
		Skew:     b,
		RefLocal: ref,
		Residual: math.Sqrt(ss / n),
		Probes:   len(kept),
	}, nil
}
