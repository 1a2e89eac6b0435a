// Command perfbench is the repository benchmark: it runs one of four
// workloads against the repository's public functions, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// # Workloads
//
// An op is the unit ops_per_cpu_s and success_ratio count. Every
// workload makes its calls one at a time, with GOMAXPROCS 1, so that
// the process's CPU time during a call is that call's own.
//
//   - characterize: an MPIBench MPI_Isend sweep on flat Perseus, sizes
//     Figure1Sizes ∪ Figure2Sizes (0 B–256 KB), block placements n×1 and
//     n×2 for n = 2…64, one mpibench.Run per placement cell. Op = one
//     timing sample recorded. This is the MPIBench user's job: time goes
//     to the event kernel and the serial network pipeline, and the
//     saturated 64×1 cells make the retransmission path real work.
//   - predict: set-up measures an MPI_Send database, lints every model
//     and executes every (application, placement) once as the reference;
//     the measured phase runs pevpm.Evaluate replications of Jacobi,
//     FFT and the task farm at placements up to 64 processes. Op = one
//     replication. This is the PEVPM user's job: the simulator runs only
//     in set-up, so an event-kernel change moves setup_s and a PEVPM
//     change moves ops_per_cpu_s.
//   - serve: pevpmd (service.New + Handler) on a loopback port, driven
//     closed-loop by one client over one keep-alive connection. The
//     seeded mix, in blocks of ten requests with a fixed class count
//     each, is replay (response-cache hit), reseed (database hit, fresh
//     prediction), rebench (new benchmark spec: sweep, fit and
//     prediction) and reject (a model mpilint refuses, HTTP 400). Op =
//     one request. It runs the same pevpm and mpibench layers as the
//     workloads above in many small calls behind two caches, so the
//     cache path and the HTTP layer show here.
//   - fabric: experiments.PatternRun on fattree:2048x32x8, one Rail and
//     two Dense matrices per round in windowed rounds, one worker. Op =
//     one delivered message. Without it the sharded network and the
//     sim.Shards window protocol go unmeasured.
//
// # End-to-end metrics (--trace 0)
//
// Times are process CPU time (cpuNow), not wall time, scaled to a
// nominal host by a reference loop timed between the calls (calib.go):
// on a shared host the wall time of the same work varies several-fold
// between runs, and even its CPU time varies by half as the other
// tenants' load comes and goes. The log lines print the wall-clock and
// unscaled figures beside them.
//
//   - ops_per_cpu_s (op/cpu-s, higher): median over the run's rounds of
//     ops completed in the round ÷ the scaled CPU seconds of its calls.
//     A serve round is one block of ten requests.
//   - setup_s (s, lower): median of five set-ups, each the scaled CPU
//     seconds before the first measured op. predict: database sweep and
//     fit, lint, reference executions. serve: server start and priming
//     the base database. characterize and fabric: one warm-up call of
//     the workload's own kind, so the measured phase starts warm.
//   - success_ratio (ratio, higher): 1 − failed ops ÷ attempted ops. An
//     op fails on an error return, a wrong status or cache outcome for
//     its class, or a failed output check.
//   - peak_rss_mb (MB, lower): peak resident set of this process.
//   - call_cpu_p50_ms, call_cpu_p95_ms (ms, lower): scaled CPU time of
//     one call into the system: a request, client and server together
//     (serve), a replication (predict), a placement cell
//     (characterize), a PatternRun (fabric). Each workload's calls are
//     chosen so neither percentile falls on a boundary between two
//     kinds of call.
//
// # Per-layer metrics (--trace 1)
//
// A traced run makes two passes over the same fixed, seeded work: one
// untraced and one recording a span around every call into a layer
// (trace.go). Counts come from the metrics snapshots the calls return
// and from Service.Stats deltas; self unit costs come from the layer
// probe (probe.go). Each workload's CPU time is attributed to the
// layers as count × self unit cost, plus the collector's CPU time, with
// the residual stated (attrib.go). Spans, probe and attribution are
// written to .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one printed figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: characterize, predict, serve or fabric")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := benchWorkloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	opts := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   ".bench_build/trace",
	}
	var res *result
	var err error
	if opts.trace {
		res, err = runTraced(w, opts, stdout)
	} else {
		res, err = runGated(w, opts, stdout)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", opts.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() string {
	var names []string
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
