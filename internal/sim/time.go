// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in timestamp
// order. Model code can be written either as plain event callbacks
// (Engine.Schedule) or as imperative processes (Engine.Spawn) that run in
// their own goroutines but are strictly interleaved by the engine, so
// simulations are fully deterministic for a given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute point in virtual time, in nanoseconds since the
// start of the simulation. Using integer nanoseconds (rather than float
// seconds) makes event ordering exact and simulations reproducible.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is distinct from
// time.Duration only to keep virtual and wall-clock quantities from being
// mixed accidentally.
type Duration int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a Time later than any event a simulation will produce.
const Forever Time = 1<<63 - 1

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// DurationFromSeconds converts float seconds to a Duration, rounding to
// the nearest nanosecond.
func DurationFromSeconds(s float64) Duration {
	if s <= 0 {
		return 0
	}
	return Duration(s*1e9 + 0.5)
}

// String formats the duration like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// Add returns the time offset by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as seconds with nanosecond precision.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return fmt.Sprintf("%.9fs", t.Seconds())
}

// TimeFromSeconds converts float seconds since simulation start to a Time.
func TimeFromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	return Time(s*1e9 + 0.5)
}
