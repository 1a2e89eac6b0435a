package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// bench is one workload instance: set up once, then measured.
type bench interface {
	// setup builds everything the measured phase needs. It is timed.
	setup(tr *tracer) error
	// measure runs ops until lim is reached and checks every output.
	measure(lim limit, tr *tracer) (*pass, error)
	// afterTrace completes a traced pass with what must run outside it:
	// work counted by repeating it, or timings that need runs of their
	// own.
	afterTrace(tr *tracer, p *pass) error
	// close releases what setup started (servers, connections).
	close()
}

// workload describes one entry of BENCHMARK.json.
type workload struct {
	new func(o options) bench
	// tracedRounds is the fixed work of each traced pass, in rounds.
	// Sized so one pass takes 4–10 s.
	tracedRounds int
}

var benchWorkloads = map[string]workload{
	"characterize": {new: newCharacterize, tracedRounds: 6},
	"predict":      {new: newPredict, tracedRounds: 120},
	"serve":        {new: newServe, tracedRounds: 12},
	"fabric":       {new: newFabric, tracedRounds: 6},
}

// setupReps is how many times a gated run sets up; setup_s is the
// median.
const setupReps = 5

// limit bounds a measured phase: by a deadline (gated runs), or by a
// fixed number of rounds (traced passes, whose counts must repeat
// exactly). A gated phase runs at least minRounds rounds, so the
// percentiles of its calls fall inside the same kinds of call however
// slow the host is, and takes reference samples between its calls.
type limit struct {
	deadline time.Time
	rounds   int
	cal      *calibrator
}

const minRounds = 3

func (l limit) more(round int) bool {
	if l.rounds > 0 {
		return round < l.rounds
	}
	return round < minRounds || time.Now().Before(l.deadline)
}

// fixed reports whether the phase runs a fixed amount of work, in which
// case its digest covers all of it (otherwise only the first round).
func (l limit) fixed() bool { return l.rounds > 0 }

// digestScope says what a pass's digest covers.
func digestScope(lim limit, n int, unit string) string {
	if lim.fixed() {
		return fmt.Sprintf("all %d %s", n, unit)
	}
	return fmt.Sprintf("the first of %d %s", n, unit)
}

// pass is what one measured phase produced.
type pass struct {
	attempted, failed int64
	wall, cpu         time.Duration // the phase's wall and process CPU time
	cal               *calibrator
	calls             []call
	roundOps          []float64 // ops completed in each round
	problems          []string  // first failed checks, for the log
	digest            uint64
	digestOf          string
	counts            counts             // work of the measured phase
	setupCounts       counts             // work of the set-up before it
	figures           map[string]float64 // workload-specific figures
}

// call is one call into the system, timed in process CPU time.
type call struct {
	start, end time.Duration
	round      int
}

func newPass(lim limit) *pass { return &pass{cal: lim.cal, figures: map[string]float64{}} }

// fail records n failed ops with a reason (only the first few reasons
// are kept).
func (p *pass) fail(n int64, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// startCall starts timing a call, after a reference sample if one is
// due.
func (p *pass) startCall() time.Duration {
	p.cal.tick()
	return cpuNow()
}

// stopCall records a call of round r that started at t0 and returns its
// CPU time as measured.
func (p *pass) stopCall(t0 time.Duration, r int) time.Duration {
	t1 := cpuNow()
	p.calls = append(p.calls, call{t0, t1, r})
	return t1 - t0
}

// callSeconds is each call's CPU seconds, scaled to the nominal host
// when the pass was calibrated.
func (p *pass) callSeconds() []float64 {
	out := make([]float64, len(p.calls))
	for i, c := range p.calls {
		out[i] = (c.end - c.start).Seconds() * p.cal.scale(c.start, c.end)
	}
	return out
}

// opsPerCPUSec is the median over rounds of the round's ops ÷ the CPU
// seconds of its calls (scaled as callSeconds).
func (p *pass) opsPerCPUSec() float64 {
	cpu := make([]float64, len(p.roundOps))
	for i, s := range p.callSeconds() {
		cpu[p.calls[i].round] += s
	}
	rates := make([]float64, len(cpu))
	for r := range cpu {
		rates[r] = p.roundOps[r] / cpu[r]
	}
	return quantile(rates, 0.5)
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuNow is the CPU time the process has used so far, all threads, user
// and system. Every figure the benchmark gates on is timed with it
// rather than the wall clock: the work is deterministic and makes one
// call at a time, so its CPU time depends on the program and the speed
// of the core, while its wall time also grows with whatever else the
// host runs (on a virtual machine whose kernel accounts steal time, CPU
// time excludes the time the hypervisor gives to other guests).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// sortedKeys returns a map's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / NumPy default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// standardPermille are the percentiles a timing may be reported at, in
// per-mille.
var standardPermille = []int{500, 900, 950, 990, 999}

// tailPermille is the highest standard percentile (per-mille) that has
// at least ten of n samples beyond it, or 0 when none has. With
// quantile's interpolation the percentile sits at 0-based rank
// (n-1)·p, so the samples beyond it are those ranked above its floor.
func tailPermille(n int) int {
	best := 0
	for _, p := range standardPermille {
		if n < 1 {
			break
		}
		if beyond := n - 1 - (n-1)*p/1000; beyond >= 10 {
			best = p
		}
	}
	return best
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
