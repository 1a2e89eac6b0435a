// Command mpibench runs the MPIBench communication benchmark on the
// simulated cluster and writes the measured distributions.
//
// Usage:
//
//	mpibench -op MPI_Isend -config 64x2 -sizes 0,1024,16384 \
//	         -reps 300 -out results.json
//
// Multiple -config values (comma-separated) produce a result set that
// cmd/pevpm can use as its performance database. With -summary the
// per-size statistics print to stdout as well.
//
// -topo retargets the simulated machine onto a hierarchical topology
// (cluster.ParseTopology grammar, docs/TOPOLOGY.md), e.g.
// "fattree:2048x32x8" or "dragonfly:8x4x8+2rail"; placements then fill
// leaf switches first and the manifest's cluster hash covers the full
// topology.
//
// -pattern switches to the group-to-group pattern engine
// (docs/PATTERNS.md): Rail/Fan/Dense matrices parameterised by -pgk
// and -direction, driven in windowed rounds of -window in-flight
// messages per pair. Comma-separated -pattern, -pgk and -window values
// sweep their cross product:
//
//	mpibench -pattern dense -topo fattree:2048x32x8 -pgk 32x4x2 \
//	         -direction omni -window 2,4 -sizes 4096,65536
//
// A flag the chosen mode does not read exits 2 with a usage error:
// -op, -adapt-* or a -config list with -pattern, and -pgk, -direction
// or -window without it.
//
// -estimates attaches confidence intervals and robust estimators to
// every size; -adapt-relwidth enables adaptive stopping (batches of
// repetitions until the CI on the chosen quantile is narrower than the
// target relative width — see docs/BENCHMARKING.md). -parallel spreads
// the placements (or pattern cells) over worker goroutines; results
// are bit-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpibench"
)

func main() {
	op := flag.String("op", "MPI_Isend", "operation to benchmark")
	configs := flag.String("config", "2x1", "comma-separated nxp placements, e.g. 2x1,64x2")
	topoFlag := flag.String("topo", "", "hierarchical topology spec, e.g. fattree:2048x32x8 (empty = flat machine)")
	sizesArg := flag.String("sizes", "0,64,256,1024,4096,16384,65536", "comma-separated message sizes (bytes)")
	reps := flag.Int("reps", 300, "measured repetitions (pattern mode: rounds) per size")
	warm := flag.Int("warmup", 20, "warm-up repetitions")
	binWidth := flag.Float64("binwidth", 5e-6, "histogram bin width (seconds)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	out := flag.String("out", "", "write the result set as JSON to this file")
	summary := flag.Bool("summary", true, "print per-size summaries")
	perfect := flag.Bool("perfect-clocks", false, "disable clock drift (ablation)")
	metricsOut := flag.String("metrics", "", "write the merged instrument snapshot as JSON to this file")
	metricsProm := flag.String("metrics-prom", "", "write the merged instrument snapshot as Prometheus text to this file")
	parallel := flag.Int("parallel", 0, "worker goroutines for multi-config sweeps (0 or 1 = serial)")
	estimates := flag.Bool("estimates", false, "attach confidence intervals and robust estimators per size")
	pattern := flag.String("pattern", "", "group-to-group pattern mode: rail, fan, dense (comma-separated sweeps)")
	pgk := flag.String("pgk", "32x4x2", "pattern shape(s) pxgxk, comma-separated")
	direction := flag.String("direction", "uni", "pattern direction: uni, bi or omni")
	windowArg := flag.String("window", "4", "pattern window depth(s), comma-separated")
	adaptRelWidth := flag.Float64("adapt-relwidth", 0, "adaptive stopping: target relative CI half-width (0 = fixed repetitions)")
	adaptQuantile := flag.Float64("adapt-quantile", 0, "adaptive stopping: quantile the CI bounds (default median)")
	adaptLevel := flag.Float64("adapt-level", 0, "adaptive stopping: confidence level (default 0.95)")
	adaptBatch := flag.Int("adapt-batch", 0, "adaptive stopping: repetitions per batch (default -reps)")
	adaptMaxBatches := flag.Int("adapt-max-batches", 0, "adaptive stopping: batch cap (default 8)")
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if err := modeFlagError(given, *pattern != "", *configs); err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.Perseus()
	if *topoFlag != "" {
		topo, nodes, err := cluster.ParseTopology(*topoFlag)
		if err != nil {
			fatal(err)
		}
		if cfg, err = cfg.WithTopology(topo, nodes); err != nil {
			fatal(err)
		}
	}
	sizes, err := parseInts(*sizesArg)
	if err != nil {
		fatal(err)
	}
	var agg *metrics.Aggregate
	if *metricsOut != "" || *metricsProm != "" {
		agg = metrics.NewAggregate()
	}

	if *pattern != "" {
		runPatterns(cfg, patternArgs{
			patterns:  *pattern,
			pgk:       *pgk,
			direction: *direction,
			windows:   *windowArg,
			config:    *configs,
			configSet: given["config"],
			sizes:     sizes,
			rounds:    *reps,
			warm:      *warm,
			binWidth:  *binWidth,
			seed:      *seed,
			perfect:   *perfect,
			workers:   *parallel,
			estimates: *estimates,
			out:       *out,
			summary:   *summary,
		}, agg)
		writeMetrics(agg, *metricsOut, *metricsProm)
		return
	}

	var placements []cluster.Placement
	for _, s := range strings.Split(*configs, ",") {
		pl, err := cluster.ParsePlacement(&cfg, strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		placements = append(placements, pl)
	}

	spec := mpibench.Spec{
		Op:            mpibench.Op(*op),
		Sizes:         sizes,
		Repetitions:   *reps,
		WarmUp:        *warm,
		BinWidth:      *binWidth,
		Seed:          *seed,
		PerfectClocks: *perfect,
		Workers:       *parallel,
		Estimates:     *estimates,
	}
	if *adaptRelWidth > 0 {
		spec.Target = &mpibench.Target{
			RelWidth:   *adaptRelWidth,
			Quantile:   *adaptQuantile,
			Level:      *adaptLevel,
			Batch:      *adaptBatch,
			MaxBatches: *adaptMaxBatches,
		}
	}
	set, err := mpibench.RunSweepObserved(cfg, spec, placements, agg)
	if err != nil {
		fatal(err)
	}

	if *summary {
		for _, res := range set.Results {
			fmt.Printf("\n%s %s on %s (%d samples/size, sync residual %.1fµs)\n",
				res.Op, res.Placement, res.Cluster, res.Samples, res.SyncResidual*1e6)
			if m := res.Manifest; m.StopReason != "" {
				fmt.Printf("adaptive: %d batch(es), stop reason %s (target %.1f%% rel width on q%.2f)\n",
					m.Batches, m.StopReason, m.Adaptive.RelWidth*100, m.Adaptive.Quantile)
			}
			fmt.Printf("%10s %12s %12s %12s %12s %12s\n",
				"bytes", "min µs", "mean µs", "median µs", "p99 µs", "max µs")
			for _, pt := range res.Points {
				fmt.Printf("%10d %12.1f %12.1f %12.1f %12.1f %12.1f\n",
					pt.Size, pt.Min()*1e6, pt.Avg()*1e6,
					pt.Hist.Quantile(0.5)*1e6, pt.Hist.Quantile(0.99)*1e6,
					pt.Hist.Max()*1e6)
				if pt.Est != nil {
					fmt.Printf("%10s mean %.1f [%.1f, %.1f]µs  q%.2f %.1f [%.1f, %.1f]µs  trimmed %.1fµs  MAD %.2fµs\n",
						"", pt.Est.Mean.Point*1e6, pt.Est.Mean.Lo*1e6, pt.Est.Mean.Hi*1e6,
						pt.Est.Quantile, pt.Est.QuantileCI.Point*1e6,
						pt.Est.QuantileCI.Lo*1e6, pt.Est.QuantileCI.Hi*1e6,
						pt.Est.TrimmedMean*1e6, pt.Est.MAD*1e6)
				}
			}
			if res.DriftFlagged {
				fmt.Printf("WARNING: warmup drift statistic %.1f exceeds threshold — measured series is not stationary; increase -warmup\n",
					res.WarmupDrift)
			}
		}
	}
	if *out != "" {
		if err := set.SaveFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	writeMetrics(agg, *metricsOut, *metricsProm)
}

// patternArgs carries the pattern-mode flag values.
type patternArgs struct {
	patterns, pgk, direction, windows string
	config                            string
	configSet                         bool
	sizes                             []int
	rounds, warm                      int
	binWidth                          float64
	seed                              uint64
	perfect                           bool
	workers                           int
	estimates                         bool
	out                               string
	summary                           bool
}

// runPatterns executes the pattern sweep: the cross product of
// -pattern × -pgk × -window cells on one placement.
func runPatterns(cfg cluster.Config, a patternArgs, agg *metrics.Aggregate) {
	dir, err := mpibench.ParseDirection(a.direction)
	if err != nil {
		fatal(err)
	}
	windows, err := parseInts(a.windows)
	if err != nil {
		fatal(err)
	}
	var cells []mpibench.PatternCell
	maxRanks := 0
	for _, name := range strings.Split(a.patterns, ",") {
		name = strings.TrimSpace(name)
		for _, shape := range strings.Split(a.pgk, ",") {
			p, g, k, err := parsePGK(strings.TrimSpace(shape))
			if err != nil {
				fatal(err)
			}
			if p*g > maxRanks {
				maxRanks = p * g
			}
			for _, w := range windows {
				cells = append(cells, mpibench.PatternCell{
					Pattern: name, P: p, G: g, K: k, Window: w, Direction: dir,
				})
			}
		}
	}
	// The placement defaults to exactly the pattern's ranks, one per
	// node; an explicit -config (one placement, as modeFlagError
	// checks) overrides it.
	var pl cluster.Placement
	if a.configSet {
		if pl, err = cluster.ParsePlacement(&cfg, strings.TrimSpace(a.config)); err != nil {
			fatal(err)
		}
	} else if pl, err = cluster.NewPlacement(&cfg, maxRanks, 1); err != nil {
		fatal(err)
	}
	base := mpibench.PatternSpec{
		Placement:     pl,
		Sizes:         a.sizes,
		Rounds:        a.rounds,
		WarmUp:        a.warm,
		BinWidth:      a.binWidth,
		Seed:          a.seed,
		PerfectClocks: a.perfect,
		Workers:       a.workers,
		Estimates:     a.estimates,
	}
	set, err := mpibench.RunPatternSweep(cfg, base, cells, agg)
	if err != nil {
		fatal(err)
	}
	if a.summary {
		for _, res := range set.Results {
			fmt.Printf("\n%s on %s %s (%d pairs, %d samples/size)\n",
				res.Pattern, res.Cluster, res.Placement, res.Pairs, res.Samples)
			fmt.Printf("%10s %12s %12s %12s %12s\n",
				"bytes", "round µs", "p99 µs", "slowest µs", "MB/s")
			for _, pt := range res.Points {
				fmt.Printf("%10d %12.1f %12.1f %12.1f %12.1f\n",
					pt.Size, pt.MaxHist.Mean()*1e6, pt.MaxHist.Quantile(0.99)*1e6,
					pt.MaxHist.Max()*1e6, pt.Bandwidth/1e6)
				if pt.Est != nil {
					fmt.Printf("%10s per-rank mean %.1f [%.1f, %.1f]µs  median %.1fµs  MAD %.2fµs\n",
						"", pt.Est.Mean.Point*1e6, pt.Est.Mean.Lo*1e6, pt.Est.Mean.Hi*1e6,
						pt.Est.Median*1e6, pt.Est.MAD*1e6)
				}
			}
		}
	}
	if a.out != "" {
		if err := set.SaveFile(a.out); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", a.out)
	}
}

// opOnlyFlags are read only without -pattern; patternOnlyFlags only
// with it.
var (
	opOnlyFlags      = []string{"op", "adapt-relwidth", "adapt-quantile", "adapt-level", "adapt-batch", "adapt-max-batches"}
	patternOnlyFlags = []string{"pgk", "direction", "window"}
)

// modeFlagError rejects flags the selected mode would silently ignore:
// the operation and adaptive-stopping flags with -pattern, the pattern
// shape flags without it, and a -config list with -pattern, which runs
// one placement. given holds the flags set on the command line
// (flag.Visit), so a flag repeating its default value still counts.
func modeFlagError(given map[string]bool, pattern bool, config string) error {
	ignored, why := patternOnlyFlags, "read only with -pattern"
	if pattern {
		ignored, why = opOnlyFlags, "not read with -pattern"
	}
	var names []string
	for _, name := range ignored {
		if given[name] {
			names = append(names, "-"+name)
		}
	}
	if len(names) > 0 {
		return fmt.Errorf("%s: %s", strings.Join(names, ", "), why)
	}
	if pattern && given["config"] && strings.Contains(config, ",") {
		return fmt.Errorf("-config %s: -pattern runs one placement, give one", config)
	}
	return nil
}

func writeMetrics(agg *metrics.Aggregate, metricsOut, metricsProm string) {
	if agg == nil {
		return
	}
	snap := agg.Snapshot()
	if metricsOut != "" {
		if err := snap.SaveJSON(metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", metricsOut)
	}
	if metricsProm != "" {
		if err := snap.SavePrometheus(metricsProm); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", metricsProm)
	}
}

// parsePGK parses a pattern shape "pxgxk", e.g. "32x4x2".
func parsePGK(s string) (p, g, k int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad pattern shape %q (want pxgxk, e.g. 32x4x2)", s)
	}
	dims := make([]int, 3)
	for i, part := range parts {
		if dims[i], err = strconv.Atoi(strings.TrimSpace(part)); err != nil {
			return 0, 0, 0, fmt.Errorf("bad pattern shape %q: %v", s, err)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine is the line fatal prints: the error behind one "mpibench: "
// prefix, which errors from internal/mpibench already start with.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "mpibench: ") {
		msg = "mpibench: " + msg
	}
	return msg
}
