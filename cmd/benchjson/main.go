// Command benchjson runs a reduced-density version of every figure
// experiment — replicated across independent seeds — and writes
// per-metric interval summaries to a JSON file, the repository's
// benchmark ledger. A second mode compares two such files with a
// confidence-interval overlap test and fails on regression, which is
// the `make bench-check` CI gate.
//
// Usage:
//
//	benchjson -out BENCH.json [-seed S] [-reps 3] [-parallel W]
//	benchjson -check -current BENCH.json -baseline BENCH_baseline.json
//	benchjson -check -legacy-tol [-tol 0.15] [-dtol 0.05] ...   (deprecated)
//
// Schema 2 stores each metric as a cell: the mean across -reps
// replications (each a full figure run on its own sub-seeded RNG
// universe), a 95% Student-t confidence interval, and the observed
// min/max. Two metric classes live in the file:
//
//   - Figure metrics (everything not ending in _wall_s) are
//     seed-deterministic model outputs — the quantities EXPERIMENTS.md
//     compares against the paper. Replication across seeds turns their
//     seed sensitivity into an honest interval; -check fails only when
//     the current and baseline intervals are disjoint, i.e. the change
//     is larger than both measurements' noise.
//   - Wall-clock metrics (*_wall_s) measure how long each figure took.
//     Before comparing, -check divides them by the run's own
//     calibration_wall_s — the fastest of several timings of a fixed
//     pure-arithmetic spin, interleaved with the replications in the
//     same process — so a slower CI machine cancels out. They fail only
//     in the regression direction: the current interval lying entirely
//     above the baseline's. Speedups never fail.
//
// When GITHUB_STEP_SUMMARY is set, -check appends a markdown verdict
// table (metric, baseline interval, current interval, verdict) to it.
//
// The -legacy-tol flag restores the old fixed percentage bands
// (-tol/-dtol) on cell means. It exists as an escape hatch while
// baselines migrate and will be removed; it warns on stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpibench"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Schema is the ledger layout version this benchjson reads and writes.
// Version 1 stored bare float64 metrics; version 2 stores interval
// cells. -check refuses mismatched files rather than guessing.
const Schema = 2

// ciLevel is the confidence level of every stored interval.
const ciLevel = 0.95

// Cell is one metric's interval summary across the replications.
type Cell struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Lo   float64 `json:"lo"` // 95% Student-t bounds on the mean
	Hi   float64 `json:"hi"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// interval adapts a cell (optionally normalised by cal) to the stats
// interval the overlap test runs on.
func (c Cell) interval(cal float64) stats.Interval {
	return stats.Interval{
		Point: c.Mean / cal, Lo: c.Lo / cal, Hi: c.Hi / cal,
		Level: ciLevel, N: uint64(c.N),
	}
}

func (c Cell) finite() bool {
	return finite(c.Mean) && finite(c.Lo) && finite(c.Hi) && finite(c.Min) && finite(c.Max)
}

// File is the on-disk schema of BENCH.json.
type File struct {
	Schema int    `json:"schema"`
	Go     string `json:"go"`
	Seed   uint64 `json:"seed"`
	Reps   int    `json:"reps"`

	// Calibration is the fastest wall time of a fixed pure-arithmetic
	// spin, timed before each replication and once after the last; wall
	// cells are compared as multiples of it so machine speed divides out
	// of the regression check.
	Calibration float64 `json:"calibration_wall_s"`

	Metrics map[string]Cell `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH.json", "file to write metrics to")
	seed := fs.Uint64("seed", 1, "root simulation seed (replications sub-seed from it)")
	reps := fs.Int("reps", 3, "independent replications per metric (min 2)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	check := fs.Bool("check", false, "compare -current against -baseline instead of running")
	current := fs.String("current", "BENCH.json", "current metrics file for -check")
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline metrics file for -check")
	legacy := fs.Bool("legacy-tol", false, "DEPRECATED: use fixed -tol/-dtol bands on means instead of CI overlap")
	tol := fs.Float64("tol", 0.15, "allowed relative wall-clock regression (only with -legacy-tol)")
	dtol := fs.Float64("dtol", 0.05, "allowed relative drift of figure metrics (only with -legacy-tol)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *check {
		return runCheck(*current, *baseline, *legacy, *tol, *dtol)
	}
	f, err := measure(*seed, *reps, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	if err := writeFile(*out, f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Printf("benchjson: wrote %d metrics (%d replications each) to %s\n",
		len(f.Metrics), f.Reps, *out)
	return 0
}

// benchParams mirrors the density bench_test.go uses: fast enough for
// every CI run while preserving each figure's headline feature.
func benchParams(seed uint64, workers int) experiments.Params {
	p := experiments.Quick()
	p.Repetitions = 60
	p.Iterations = 200
	p.EvalRuns = 3
	p.Seed = seed
	p.Workers = workers
	return p
}

// calibrate measures a fixed amount of pure arithmetic. Wall metrics are
// compared as multiples of this, so machine speed divides out of the
// regression check while simulator slowdowns do not.
func calibrate() float64 {
	//detlint:allow wallclock -- the *_wall_s ledger metrics are wall timings by design; they are calibration-normalised, never diffed byte-for-byte
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var sink uint64
	for i := 0; i < 200_000_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		sink ^= z ^ (z >> 31)
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprintln(os.Stderr, "")
	}
	//detlint:allow wallclock -- see calibrate: wall metrics are the ledger's measurement, not simulation output
	return time.Since(start).Seconds()
}

// measure runs the full metric suite reps times, each replication on an
// independent sub-seeded RNG universe, and folds the results into
// interval cells.
func measure(seed uint64, reps, workers int) (*File, error) {
	if reps < 2 {
		reps = 2 // one observation has no interval
	}
	series := map[string][]float64{}
	// One spin before each replication and one after the last: the
	// fastest is the least disturbed by other load on the host.
	spins := make([]float64, 0, reps+1)
	for rep := 0; rep < reps; rep++ {
		spins = append(spins, calibrate())
		repSeed := sim.SubSeed(seed, fmt.Sprintf("bench:rep%d", rep))
		m, err := measureOnce(repSeed, workers)
		if err != nil {
			return nil, fmt.Errorf("replication %d: %w", rep, err)
		}
		if name, v, bad := firstNonFinite(m); bad {
			return nil, fmt.Errorf("replication %d: metric %s is %v", rep, name, v)
		}
		var names []string
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			series[name] = append(series[name], m[name])
		}
	}

	spins = append(spins, calibrate())
	fmt.Fprintf(os.Stderr, "benchjson: calibration spins (s): %v\n", spins)

	f := &File{
		Schema:      Schema,
		Go:          runtime.Version(),
		Seed:        seed,
		Reps:        reps,
		Calibration: slices.Min(spins),
		Metrics:     make(map[string]Cell, len(series)),
	}
	var names []string
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := series[name]
		if len(xs) != reps {
			return nil, fmt.Errorf("metric %s present in %d of %d replications", name, len(xs), reps)
		}
		var sum stats.Summary
		for _, x := range xs {
			sum.Add(x)
		}
		iv := stats.StudentCI(sum, ciLevel)
		f.Metrics[name] = Cell{
			N: reps, Mean: sum.Mean, Lo: iv.Lo, Hi: iv.Hi, Min: sum.Min, Max: sum.Max,
		}
	}
	return f, nil
}

// measureOnce runs every figure experiment once and returns the flat
// metric map for this replication (figure metrics plus wall timings).
func measureOnce(seed uint64, workers int) (map[string]float64, error) {
	cfg := cluster.Perseus()
	p := benchParams(seed, workers)
	m := map[string]float64{}

	timed := func(name string, f func() error) error {
		//detlint:allow wallclock -- *_wall_s metrics are deliberate wall timings, normalised by calibrate() before comparison
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		//detlint:allow wallclock -- see above: ledger wall metric, not simulation output
		m[name+"_wall_s"] = time.Since(start).Seconds()
		return nil
	}

	curveAt := func(curves []experiments.Curve, label string, size int) float64 {
		for _, c := range curves {
			if c.Label != label {
				continue
			}
			for i, s := range c.Sizes {
				if s == size {
					return c.Micros[i]
				}
			}
		}
		return math.NaN()
	}

	if err := timed("fig1", func() error {
		curves, err := experiments.Figure1(cfg, p)
		if err != nil {
			return err
		}
		m["fig1_contention_ratio_1KB"] = curveAt(curves, "64x1", 1024) / curveAt(curves, "2x1", 1024)
		m["fig1_us_per_op_2x1_1KB"] = curveAt(curves, "2x1", 1024)
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("fig2", func() error {
		curves, err := experiments.Figure2(cfg, p)
		if err != nil {
			return err
		}
		t2 := curveAt(curves, "2x1", 16384)
		m["fig2_goodput_2x1_16KB_mbit"] = 16384 * 8 / (t2 / 1e6) / 1e6
		m["fig2_saturation_ratio_64x1_16KB"] = curveAt(curves, "64x1", 16384) / curveAt(curves, "8x1", 16384)
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("fig3", func() error {
		pdfs, err := experiments.Figure3(cfg, p)
		if err != nil {
			return err
		}
		for _, pdf := range pdfs {
			if pdf.Size == 1024 {
				m["fig3_rel_spread_64x2_1KB"] = (pdf.Mean - pdf.Min) / pdf.Mean
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("fig4", func() error {
		pdfs, err := experiments.Figure4(cfg, p)
		if err != nil {
			return err
		}
		for _, pdf := range pdfs {
			if pdf.Size == 16384 {
				m["fig4_tail_ratio_64x1_16KB"] = pdf.Max / pdf.Mean
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("fig6", func() error {
		p6 := p
		p6.MaxNodes = 32
		res, err := experiments.Figure6(cfg, p6, nil)
		if err != nil {
			return err
		}
		measured, _ := res.SeriesByLabel("measured")
		dist, _ := res.SeriesByLabel("pevpm distributions")
		worst := 0.0
		for i := range measured.Procs {
			if e := math.Abs(dist.Speedups[i]-measured.Speedups[i]) / measured.Speedups[i]; e > worst {
				worst = e
			}
		}
		m["fig6_worst_dist_error_pct"] = worst * 100
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("shardrun", func() error {
		// The sharded large-cluster run: 256 nodes over a fat tree,
		// partitioned one LP per leaf. The makespan is a figure metric
		// (seed-deterministic, worker-independent); the wall metric
		// watches the sharded engine's execution cost.
		rep, err := experiments.LargeRun(experiments.LargeRunSpec{
			Topo: "fattree:256x32x8", Rounds: 1, Window: 2, Size: 8192,
			Seed: seed, Workers: workers,
		})
		if err != nil {
			return err
		}
		m["shardrun_makespan_s"] = rep.Makespan.Seconds()
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("pattern", func() error {
		bw, err := measurePatternBandwidth(seed)
		if err != nil {
			return err
		}
		m["pattern_dense_bw"] = bw
		return nil
	}); err != nil {
		return nil, err
	}

	if err := measureService(m, timed, seed, workers); err != nil {
		return nil, err
	}

	if err := timed("collectives", func() error {
		pc := p
		pc.MaxNodes = 16
		rows, err := experiments.CollectiveTable(cfg, pc, 1024)
		if err != nil {
			return err
		}
		var b4, b16 float64
		for _, r := range rows {
			if r.Op == mpibench.OpBcast && r.Procs == 4 {
				b4 = r.MeanUs
			}
			if r.Op == mpibench.OpBcast && r.Procs == 16 {
				b16 = r.MeanUs
			}
		}
		m["collective_bcast_4to16_growth"] = b16 / b4
		return nil
	}); err != nil {
		return nil, err
	}

	return m, nil
}

// measureService drives the prediction service in-process: one cold
// request (lint → database fit → Monte-Carlo prediction → encode) and
// one identical cached request that must replay from the response cache
// without re-running prediction. service_predict_wall_s and
// service_cached_wall_s land under the CI-overlap wall gate, and the
// cached path is additionally asserted strictly faster than the cold
// path in-process — the cache serving slower than computing would be a
// correctness bug, not noise. The predicted mean makespan is the
// figure metric: seed-deterministic and worker-independent.
func measureService(m map[string]float64, timed func(string, func() error) error, seed uint64, workers int) error {
	svc := service.New(service.Config{Workers: workers})
	defer svc.Close()

	req, err := json.Marshal(service.Request{
		Model: "PEVPM Param bytes = 1024\n" +
			"PEVPM Loop iterations = 2\n" +
			"PEVPM {\n" +
			"PEVPM   Serial time = 0.001\n" +
			"PEVPM   Message type = MPI_Isend\n" +
			"PEVPM   &       size = bytes\n" +
			"PEVPM   &       from = procnum\n" +
			"PEVPM   &       to = (procnum + 1) % numprocs\n" +
			"PEVPM   Message type = MPI_Recv\n" +
			"PEVPM   &       size = bytes\n" +
			"PEVPM   &       from = (procnum + numprocs - 1) % numprocs\n" +
			"PEVPM   &       to = procnum\n" +
			"PEVPM }\n",
		Procs: 8,
		Seed:  seed,
		Runs:  8,
		Bench: service.BenchSpec{
			Sizes:       []int{0, 1024},
			Placements:  []string{"2x1", "8x1"},
			Repetitions: 10,
			WarmUp:      4,
			SyncProbes:  4,
			Seed:        1,
		},
	})
	if err != nil {
		return err
	}

	if err := timed("service_predict", func() error {
		res := svc.HandleRequest(context.Background(), req)
		if res.Status != 200 {
			return fmt.Errorf("service: status %d: %s", res.Status, res.Body)
		}
		if res.Cache != "miss" {
			return fmt.Errorf("service: cold request reported cache %q", res.Cache)
		}
		var resp service.Response
		if err := json.Unmarshal(res.Body, &resp); err != nil {
			return err
		}
		m["service_predict_mean_s"] = resp.Prediction.Mean
		return nil
	}); err != nil {
		return err
	}

	if err := timed("service_cached", func() error {
		res := svc.HandleRequest(context.Background(), req)
		if res.Status != 200 {
			return fmt.Errorf("service: cached status %d", res.Status)
		}
		if res.Cache != "hit" {
			return fmt.Errorf("service: repeat request reported cache %q, want hit", res.Cache)
		}
		return nil
	}); err != nil {
		return err
	}

	st := svc.Stats()
	if st.Caches["response"].Hits < 1 {
		return fmt.Errorf("service: response cache reported %d hits after a cached request", st.Caches["response"].Hits)
	}
	if st.Predictions != 1 {
		return fmt.Errorf("service: %d predictions executed for 2 identical requests, want 1", st.Predictions)
	}
	if m["service_cached_wall_s"] >= m["service_predict_wall_s"] {
		return fmt.Errorf("service: cached wall %.6fs not strictly below uncached %.6fs — the response cache is not serving",
			m["service_cached_wall_s"], m["service_predict_wall_s"])
	}
	return nil
}

// measurePatternBandwidth runs the Dense group-to-group pattern on a
// fat tree (docs/PATTERNS.md) and returns the achieved bandwidth — a
// figure metric, seed-deterministic and worker-independent; the wall
// metric around it watches the pattern engine's execution cost.
func measurePatternBandwidth(seed uint64) (float64, error) {
	topo, nodes, err := cluster.ParseTopology("fattree:128x32x4")
	if err != nil {
		return 0, err
	}
	pcfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		return 0, err
	}
	pl, err := cluster.NewPlacement(&pcfg, 128, 1)
	if err != nil {
		return 0, err
	}
	res, err := mpibench.RunPattern(pcfg, mpibench.PatternSpec{
		Pattern: mpibench.PatternDense, P: 32, G: 4, K: 2,
		Direction: mpibench.Unidirectional, Window: 2,
		Placement: pl, Sizes: []int{16384},
		Rounds: 8, WarmUp: 2, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	return res.Points[0].Bandwidth, nil
}

// firstNonFinite scans in sorted order so the metric named in the
// error is stable when several are non-finite (map order would pick
// one at random).
func firstNonFinite(m map[string]float64) (string, float64, bool) {
	checked := make([]string, 0, len(m))
	for name := range m {
		checked = append(checked, name)
	}
	sort.Strings(checked)
	for _, name := range checked {
		if v := m[name]; !finite(v) {
			return name, v, true
		}
	}
	return "", 0, false
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readFile loads a ledger and refuses any schema other than the one
// this binary writes. A v1 file (bare float metrics) or a future v3
// must be regenerated, not reinterpreted: the gate's semantics live in
// the schema.
func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, but this benchjson speaks schema %d — regenerate the file (make bench-baseline for the baseline)",
			path, probe.Schema, Schema)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &f, nil
}

func isWall(name string) bool {
	const suffix = "_wall_s"
	return len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix
}

// finite reports whether v is an ordinary number (not NaN or ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// usableCalibration rejects calibrations that would poison every
// normalised wall ratio: NaN/Inf, non-positive, and denormal-tiny values
// from a glitched or too-coarse clock. The genuine spin takes whole
// seconds, so anything under a microsecond is a measurement failure.
func usableCalibration(v float64) bool { return finite(v) && v >= 1e-6 }

// verdictRow is one line of the comparison report and of the CI
// step-summary table.
type verdictRow struct {
	name     string
	baseline string // formatted baseline interval
	current  string // formatted current interval
	verdict  string // "ok" or a failure description
	failed   bool
}

func runCheck(currentPath, baselinePath string, legacy bool, tol, dtol float64) int {
	cur, err := readFile(currentPath)
	if err == nil {
		var base *File
		base, err = readFile(baselinePath)
		if err == nil {
			var code int
			var rows []verdictRow
			if legacy {
				fmt.Fprintln(os.Stderr, "benchjson: -legacy-tol is deprecated; the CI-overlap test is the supported gate and this flag will be removed")
				code, rows = compareLegacy(cur, base, tol, dtol)
			} else {
				code, rows = compare(cur, base)
			}
			if err := writeStepSummary(rows, code); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: step summary: %v\n", err)
			}
			return code
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	return 2
}

// metricNames returns the union-ordered comparison plan: baseline names
// sorted, then current-only names sorted — so reports and verdict
// tables are deterministic.
func metricNames(cur, base *File) (names []string, newOnly []string) {
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for name := range cur.Metrics {
		if _, ok := base.Metrics[name]; !ok {
			newOnly = append(newOnly, name)
		}
	}
	sort.Strings(newOnly)
	return names, newOnly
}

func fmtInterval(c Cell, cal float64) string {
	iv := c.interval(cal)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", iv.Point, iv.Lo, iv.Hi)
}

// compare is the CI-overlap gate. Figure metrics fail when the current
// and baseline intervals are disjoint in either direction; wall metrics
// (calibration-normalised) fail only when the current interval lies
// entirely above the baseline's — a slowdown bigger than both runs'
// noise. Fixed percentage bands appear nowhere: the measurements
// themselves say how much noise is normal.
func compare(cur, base *File) (int, []verdictRow) {
	if !usableCalibration(cur.Calibration) || !usableCalibration(base.Calibration) {
		fmt.Fprintf(os.Stderr, "benchjson: unusable calibration_wall_s (current %v, baseline %v); refresh both files\n",
			cur.Calibration, base.Calibration)
		return 2, nil
	}

	names, newOnly := metricNames(cur, base)
	var rows []verdictRow
	failures := 0
	for _, name := range names {
		b := base.Metrics[name]
		c, ok := cur.Metrics[name]
		row := verdictRow{name: name}
		switch {
		case !ok:
			row.baseline = fmtInterval(b, 1)
			row.current = "—"
			row.verdict, row.failed = "missing from current run (refresh the baseline?)", true
		case !c.finite() || !b.finite():
			// NaN/Inf would sail through every comparison below (NaN
			// compares false against everything) and pass silently.
			row.baseline = fmtInterval(b, 1)
			row.current = fmtInterval(c, 1)
			row.verdict, row.failed = "non-finite value", true
		case isWall(name):
			// Normalise by each run's own calibration so only simulator
			// slowdowns — not slower CI hardware — count as regressions.
			bi, ci := b.interval(base.Calibration), c.interval(cur.Calibration)
			row.baseline = fmtInterval(b, base.Calibration) + "× cal"
			row.current = fmtInterval(c, cur.Calibration) + "× cal"
			if ci.Lo > bi.Hi {
				row.verdict, row.failed = "slower: intervals disjoint in the regression direction", true
			} else {
				row.verdict = "ok"
			}
		default:
			bi, ci := b.interval(1), c.interval(1)
			row.baseline = fmtInterval(b, 1)
			row.current = fmtInterval(c, 1)
			if !stats.Overlap(bi, ci) {
				row.verdict, row.failed = "drift: intervals disjoint", true
			} else {
				row.verdict = "ok"
			}
		}
		rows = append(rows, row)
	}
	for _, name := range newOnly {
		rows = append(rows, verdictRow{
			name:     name,
			baseline: "—",
			current:  fmtInterval(cur.Metrics[name], 1),
			verdict:  "new metric not in baseline (refresh BENCH_baseline.json)",
			failed:   true,
		})
	}

	for _, row := range rows {
		status := "ok  "
		if row.failed {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s %-34s %28s vs %28s  %s\n", status, row.name, row.current, row.baseline, row.verdict)
	}
	if failures > 0 {
		fmt.Printf("benchjson: %d metric(s) outside CI overlap — see docs/BENCHMARKING.md for how to read this and docs/CI.md for how to refresh the baseline\n", failures)
		return 1, rows
	}
	fmt.Printf("benchjson: all %d metrics within CI overlap\n", len(names))
	return 0, rows
}

// compareLegacy is the deprecated fixed-band gate, kept behind
// -legacy-tol for baseline migration: wall means within 1+tol of the
// baseline (calibration-normalised), figure means within dtol drift.
func compareLegacy(cur, base *File, tol, dtol float64) (int, []verdictRow) {
	if !usableCalibration(cur.Calibration) || !usableCalibration(base.Calibration) {
		fmt.Fprintf(os.Stderr, "benchjson: unusable calibration_wall_s (current %v, baseline %v); refresh both files\n",
			cur.Calibration, base.Calibration)
		return 2, nil
	}
	names, newOnly := metricNames(cur, base)
	var rows []verdictRow
	failures := 0
	for _, name := range names {
		b := base.Metrics[name]
		c, ok := cur.Metrics[name]
		row := verdictRow{name: name, baseline: fmt.Sprintf("%.4g", b.Mean)}
		switch {
		case !ok:
			row.current = "—"
			row.verdict, row.failed = "missing from current run", true
		case !finite(c.Mean) || !finite(b.Mean):
			row.current = fmt.Sprintf("%v", c.Mean)
			row.verdict, row.failed = "non-finite value", true
		case isWall(name):
			cn, bn := c.Mean/cur.Calibration, b.Mean/base.Calibration
			ratio := cn / bn
			row.baseline = fmt.Sprintf("%.3fx cal", bn)
			row.current = fmt.Sprintf("%.3fx cal", cn)
			if !finite(ratio) || ratio > 1+tol {
				row.verdict, row.failed = fmt.Sprintf("%+.1f%% over limit +%.0f%%", (ratio-1)*100, tol*100), true
			} else {
				row.verdict = "ok"
			}
		default:
			drift := 0.0
			if c.Mean != b.Mean {
				drift = math.Abs(c.Mean-b.Mean) / math.Abs(b.Mean)
			}
			row.current = fmt.Sprintf("%.4g", c.Mean)
			if !finite(drift) || drift > dtol {
				row.verdict, row.failed = fmt.Sprintf("drift %.2f%% over limit %.0f%%", drift*100, dtol*100), true
			} else {
				row.verdict = "ok"
			}
		}
		rows = append(rows, row)
	}
	for _, name := range newOnly {
		rows = append(rows, verdictRow{
			name: name, baseline: "—", current: fmt.Sprintf("%.4g", cur.Metrics[name].Mean),
			verdict: "new metric not in baseline", failed: true,
		})
	}
	for _, row := range rows {
		status := "ok  "
		if row.failed {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s %-34s %20s vs %20s  %s\n", status, row.name, row.current, row.baseline, row.verdict)
	}
	if failures > 0 {
		fmt.Printf("benchjson: %d metric(s) regressed or drifted (legacy bands)\n", failures)
		return 1, rows
	}
	fmt.Printf("benchjson: all %d metrics within legacy bands\n", len(names))
	return 0, rows
}

// writeStepSummary appends the verdict table to the file named by
// GITHUB_STEP_SUMMARY, when set — the markdown GitHub renders on the
// workflow run page. A no-op outside Actions.
func writeStepSummary(rows []verdictRow, code int) error {
	//detlint:allow wallclock -- CI reporting plumbing: the step-summary path comes from the Actions runner, never from simulation code
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" || rows == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	head := "### Benchmark gate: PASS ✅\n\n"
	if code != 0 {
		head = "### Benchmark gate: FAIL ❌\n\n"
	}
	fmt.Fprint(f, head)
	fmt.Fprint(f, "| metric | baseline (95% CI) | current (95% CI) | verdict |\n")
	fmt.Fprint(f, "|---|---|---|---|\n")
	for _, row := range rows {
		verdict := "✅ " + row.verdict
		if row.failed {
			verdict = "❌ " + row.verdict
		}
		fmt.Fprintf(f, "| `%s` | %s | %s | %s |\n", row.name, row.baseline, row.current, verdict)
	}
	fmt.Fprint(f, "\nWall metrics are calibration-normalised and fail only in the regression direction; figure metrics fail when intervals are disjoint either way. See docs/BENCHMARKING.md.\n")
	return f.Close()
}
