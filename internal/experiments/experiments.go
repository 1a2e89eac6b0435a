// Package experiments regenerates every figure of the paper on the
// simulated Perseus cluster. Each FigureN function returns the series
// the corresponding figure plots; cmd/repro prints them and
// EXPERIMENTS.md records how they compare with the paper.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Params scales experiment cost. Quick keeps unit tests and benches
// fast; Full approaches the paper's sampling density.
type Params struct {
	Repetitions int // measured ops per size per config
	WarmUp      int
	SyncProbes  int
	EvalRuns    int // PEVPM Monte-Carlo evaluations per prediction
	Iterations  int // Jacobi iterations (paper: 100000; reduced here)
	MaxNodes    int // largest n in the n×p sweeps (paper: 64)
	Seed        uint64

	// MeasuredReps replicates Figure 6's measured Jacobi executions so
	// the measured side of the comparison carries an error bar too
	// (Student-t CI across replications). Zero means one execution —
	// the point estimate alone, with a degenerate interval. Replication
	// 0 keeps the original RNG substream, so point estimates are
	// unchanged by turning replication on.
	MeasuredReps int

	// Workers bounds how many simulation cells run concurrently. Zero
	// means GOMAXPROCS; one is the serial escape hatch. Every cell owns
	// its engine and derives its RNG substream from (Seed, cell key),
	// and results merge in canonical cell order, so figures are
	// bit-identical for every worker count.
	Workers int

	// Metrics, when non-nil, accumulates the instrument snapshot of
	// every simulation cell an experiment runs (sim kernel, netsim, mpi,
	// pevpm) plus the worker pool's own counters. Snapshots merge in
	// canonical cell order on the calling goroutine, so the folded
	// aggregate is byte-identical at any worker count. Nil skips all
	// collection; figure output is identical either way.
	Metrics *metrics.Aggregate
}

// workers resolves the configured worker count.
func (p Params) workers() int { return sweep.Workers(p.Workers) }

// measuredReps resolves the measured-execution replication count.
func (p Params) measuredReps() int {
	if p.MeasuredReps < 1 {
		return 1
	}
	return p.MeasuredReps
}

// Quick returns parameters for fast runs (tests, benches).
func Quick() Params {
	return Params{
		Repetitions:  80,
		WarmUp:       10,
		SyncProbes:   20,
		EvalRuns:     5,
		Iterations:   400,
		MaxNodes:     64,
		Seed:         1,
		MeasuredReps: 3,
	}
}

// Full returns parameters at the paper's fidelity.
func Full() Params {
	return Params{
		Repetitions: 300,
		WarmUp:      20,
		SyncProbes:  40,
		EvalRuns:    20,
		Iterations:  4000, // per-iteration behaviour is what Figure 6 plots;
		// the paper's 100000 iterations only narrow the statistical error
		MaxNodes:     64,
		Seed:         1,
		MeasuredReps: 5,
	}
}

// nodeSweep returns the paper's node counts 2,4,...,MaxNodes.
func (p Params) nodeSweep() []int {
	var out []int
	for n := 2; n <= p.MaxNodes; n *= 2 {
		out = append(out, n)
	}
	return out
}

// placements returns the benchmark configurations n×p for the given
// processes-per-node values, using the scheduler's scattered layout.
func (p Params) placements(cfg *cluster.Config, perNode ...int) ([]cluster.Placement, error) {
	return p.layoutPlacements(cfg, cluster.NewPlacement, perNode...)
}

// blockPlacements is the physically-contiguous variant, used by the
// network-characterisation figures: the paper's analysis of them depends
// on knowing exactly which switches a configuration spans (64×1 =
// 24+24+16 ports).
func (p Params) blockPlacements(cfg *cluster.Config, perNode ...int) ([]cluster.Placement, error) {
	return p.layoutPlacements(cfg, cluster.NewBlockPlacement, perNode...)
}

func (p Params) layoutPlacements(cfg *cluster.Config,
	build func(*cluster.Config, int, int) (cluster.Placement, error),
	perNode ...int) ([]cluster.Placement, error) {
	var out []cluster.Placement
	for _, pn := range perNode {
		for _, n := range p.nodeSweep() {
			pl, err := build(cfg, n, pn)
			if err != nil {
				return nil, err
			}
			out = append(out, pl)
		}
	}
	return out, nil
}

// Curve is one line of Figures 1 and 2: average (or minimum) time
// versus message size for one process configuration.
type Curve struct {
	Label  string    `json:"label"`
	Sizes  []int     `json:"sizes"`
	Micros []float64 `json:"micros"` // time per operation, microseconds
}

// isendCurves measures MPI_Isend across sizes and placements and returns
// one average curve per placement plus the contention-free "min" curve
// (the smallest individual time observed anywhere, per size — the paper's
// min line comes from one pair of communicating processes).
func isendCurves(cfg cluster.Config, p Params, sizes []int, placements []cluster.Placement) ([]Curve, error) {
	spec := mpibench.Spec{
		Op:          mpibench.OpIsend,
		Sizes:       sizes,
		Repetitions: p.Repetitions,
		WarmUp:      p.WarmUp,
		SyncProbes:  p.SyncProbes,
		Seed:        p.Seed,
		Workers:     p.workers(),
	}
	set, err := mpibench.RunSweepObserved(cfg, spec, placements, p.Metrics)
	if err != nil {
		return nil, err
	}
	var curves []Curve
	min := Curve{Label: "min", Sizes: sizes, Micros: make([]float64, len(sizes))}
	for i := range min.Micros {
		min.Micros[i] = -1
	}
	for _, pl := range placements {
		res, ok := set.Find(mpibench.OpIsend, pl.String())
		if !ok {
			return nil, fmt.Errorf("experiments: missing result for %v", pl)
		}
		c := Curve{Label: pl.String(), Sizes: sizes}
		for i, size := range sizes {
			pt, ok := res.PointFor(size)
			if !ok {
				return nil, fmt.Errorf("experiments: missing size %d for %v", size, pl)
			}
			c.Micros = append(c.Micros, pt.Avg()*1e6)
			if m := pt.Min() * 1e6; min.Micros[i] < 0 || m < min.Micros[i] {
				min.Micros[i] = m
			}
		}
		curves = append(curves, c)
	}
	return append(curves, min), nil
}

// Figure1Sizes are the paper's small message sizes (0 bytes – 1 KB).
func Figure1Sizes() []int { return []int{0, 64, 128, 256, 512, 768, 1024} }

// Figure2Sizes are the paper's large message sizes (1 KB – 256 KB).
func Figure2Sizes() []int {
	return []int{1024, 4096, 8192, 16384, 32768, 65536, 131072, 262144}
}

// Figure1 reproduces "Average times for MPI_Isend using small message
// sizes with various numbers of communicating processes". The
// characterisation figures use block placement: the paper's analysis of
// them reasons about exactly which switches each configuration occupies.
func Figure1(cfg cluster.Config, p Params) ([]Curve, error) {
	pls, err := p.blockPlacements(&cfg, 1, 2)
	if err != nil {
		return nil, err
	}
	return isendCurves(cfg, p, Figure1Sizes(), pls)
}

// Figure2 reproduces the large-message companion plot, whose features
// are the 16 KB protocol knee and the 64×1 saturation cliff.
func Figure2(cfg cluster.Config, p Params) ([]Curve, error) {
	pls, err := p.blockPlacements(&cfg, 1, 2)
	if err != nil {
		return nil, err
	}
	return isendCurves(cfg, p, Figure2Sizes(), pls)
}

// PDF is one distribution of Figures 3 and 4.
type PDF struct {
	Label string      `json:"label"`
	Size  int         `json:"size"`
	Bins  []stats.Bin `json:"bins"`
	Mean  float64     `json:"mean"`
	Min   float64     `json:"min"`
	Max   float64     `json:"max"`
}

// pdfsFor measures MPI_Isend distributions for one placement.
func pdfsFor(cfg cluster.Config, p Params, pl cluster.Placement, sizes []int, binWidth float64) ([]PDF, error) {
	res, err := mpibench.Run(cfg, mpibench.Spec{
		Op:          mpibench.OpIsend,
		Sizes:       sizes,
		Placement:   pl,
		Repetitions: p.Repetitions,
		WarmUp:      p.WarmUp,
		SyncProbes:  p.SyncProbes,
		BinWidth:    binWidth,
		Seed:        p.Seed,
	})
	if err != nil {
		return nil, err
	}
	if p.Metrics != nil {
		p.Metrics.Merge(res.Metrics)
	}
	var out []PDF
	for _, pt := range res.Points {
		out = append(out, PDF{
			Label: fmt.Sprintf("%s %dB", pl, pt.Size),
			Size:  pt.Size,
			Bins:  pt.Hist.Bins(),
			Mean:  pt.Avg(),
			Min:   pt.Min(),
			Max:   pt.Hist.Max(),
		})
	}
	return out, nil
}

// Figure3 reproduces the sampled performance profiles for small messages
// under high contention (64×2 processes, 0–1024 bytes).
func Figure3(cfg cluster.Config, p Params) ([]PDF, error) {
	pl, err := cluster.NewBlockPlacement(&cfg, p.MaxNodes, 2)
	if err != nil {
		return nil, err
	}
	return pdfsFor(cfg, p, pl, []int{0, 256, 512, 1024}, 10e-6)
}

// Figure4 reproduces the large-message profiles under network
// saturation (64×1 processes, ≥16 KB), whose long tails come from
// TCP retransmission timeouts.
func Figure4(cfg cluster.Config, p Params) ([]PDF, error) {
	pl, err := cluster.NewBlockPlacement(&cfg, p.MaxNodes, 1)
	if err != nil {
		return nil, err
	}
	return pdfsFor(cfg, p, pl, []int{16384, 32768, 65536}, 250e-6)
}

// SpeedupSeries is one line of Figure 6. Points are identified both by
// total process count and by the n×p configuration (the ×1 and ×2
// sub-sweeps appear in one series, as in the paper's single plot).
type SpeedupSeries struct {
	Label    string    `json:"label"`
	Configs  []string  `json:"configs"`
	Procs    []int     `json:"procs"`
	Speedups []float64 `json:"speedups"`

	// Los and His are the 95% confidence bounds on each speedup — the
	// figure's error bars. The measured series gets them from
	// Params.MeasuredReps replicated executions, the distribution-mode
	// prediction from its EvalRuns Monte-Carlo replications; the
	// deterministic point-value modes carry degenerate intervals
	// (Lo == Speedup == Hi).
	Los []float64 `json:"los"`
	His []float64 `json:"his"`
}

// HasErrorBars reports whether any point carries a non-degenerate
// interval — false for the deterministic point-value prediction modes
// and for unreplicated runs.
func (s SpeedupSeries) HasErrorBars() bool {
	for i := range s.Speedups {
		if s.Los[i] != s.Speedups[i] || s.His[i] != s.Speedups[i] {
			return true
		}
	}
	return false
}

// Figure6Result carries the speedup series plus the evaluation-cost
// accounting behind the paper's "67.5 times its actual execution speed"
// observation.
type Figure6Result struct {
	Series []SpeedupSeries `json:"series"`

	// ProcessorSeconds is the total simulated processor time of the
	// real executions (the paper's 11h15m); EvalSeconds is the wall
	// time PEVPM needed for all distribution-mode predictions.
	ProcessorSeconds float64 `json:"processor_seconds"`
	EvalSeconds      float64 `json:"eval_seconds"`
}

// Figure6Modes are the prediction variants the paper plots.
var Figure6Modes = []string{
	"measured",
	"pevpm distributions",
	"pevpm avg nxp",
	"pevpm avg 2x1",
	"pevpm min 2x1",
}

// Figure6 reproduces the Jacobi speedup comparison: measured execution
// versus PEVPM predictions using full distributions and the three
// simplistic variants. elapsed is a callback returning wall-clock
// seconds, injected so tests stay deterministic (pass nil to skip cost
// accounting).
func Figure6(cfg cluster.Config, p Params, elapsed func() float64) (*Figure6Result, error) {
	j := workloads.Jacobi{
		XSize:        256,
		Iterations:   p.Iterations,
		SweepSeconds: cluster.JacobiSweepSeconds,
	}
	prog, err := j.Model()
	if err != nil {
		return nil, err
	}

	// The benchmark database: MPI_Send distributions across the same
	// n×p configurations the predictions will be made for, plus the 1×2
	// single-node placement that characterises the intra-node path.
	pls, err := p.placements(&cfg, 1, 2)
	if err != nil {
		return nil, err
	}
	dbPls := pls
	if cfg.CPUsPerNode >= 2 {
		intra, err := cluster.NewPlacement(&cfg, 1, 2)
		if err != nil {
			return nil, err
		}
		dbPls = append([]cluster.Placement{intra}, pls...)
	}
	set, err := mpibench.RunSweepObserved(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{0, 256, 1024, 4096},
		Repetitions: p.Repetitions,
		WarmUp:      p.WarmUp,
		SyncProbes:  p.SyncProbes,
		Seed:        p.Seed + 77,
		Workers:     p.workers(),
	}, dbPls, p.Metrics)
	if err != nil {
		return nil, err
	}
	distDB, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		return nil, err
	}
	// Figure6Modes' prediction labels follow pevpm.Modes' order.
	modes := map[string]pevpm.PerfDB{}
	for i, label := range Figure6Modes[1:] {
		if modes[label], err = pevpm.ModeDB(distDB, pevpm.Modes[i]); err != nil {
			return nil, err
		}
	}

	serial := j.SerialTime()
	series := map[string]*SpeedupSeries{}
	for _, label := range Figure6Modes {
		series[label] = &SpeedupSeries{Label: label}
	}
	markStart := 0.0
	if elapsed != nil {
		markStart = elapsed()
	}

	// Enumerate every independent cell of the figure: MeasuredReps
	// measured executions per placement plus one virtual-machine
	// replication per (placement, prediction mode, Monte-Carlo rep).
	// Each cell builds its own engine and derives its RNG substream
	// from (Seed, cell key), so the sweep below can run them on any
	// number of workers; the merge walks cells in canonical order,
	// keeping the figure bit-identical to a serial run.
	predLabels := Figure6Modes[1:]
	type cell struct {
		pi    int
		label string // "" for the measured execution
		rep   int
	}
	var cells []cell
	for pi := range pls {
		for rep := 0; rep < p.measuredReps(); rep++ {
			cells = append(cells, cell{pi: pi, rep: rep})
		}
		for _, label := range predLabels {
			runs := p.EvalRuns
			if label != "pevpm distributions" {
				runs = 1 // point-value modes are deterministic
			}
			for rep := 0; rep < runs; rep++ {
				cells = append(cells, cell{pi: pi, label: label, rep: rep})
			}
		}
	}

	makespans, err := sweep.Map(p.workers(), len(cells), p.Metrics, func(i int) (float64, metrics.Snapshot, error) {
		c := cells[i]
		pl := pls[c.pi]
		if c.label == "" {
			// Replication 0 keeps the substream key from before measured
			// replication existed, so recorded point estimates survive.
			key := "fig6:measured:" + pl.String()
			if c.rep > 0 {
				key = fmt.Sprintf("fig6:measured:%s:rep%d", pl, c.rep)
			}
			res, err := workloads.Execute(cfg, pl, sim.SubSeed(p.Seed, key), j.Run)
			if err != nil {
				return 0, metrics.Snapshot{}, fmt.Errorf("experiments: executing jacobi on %v: %w", pl, err)
			}
			return res.Makespan.Seconds(), res.Metrics, nil
		}
		rep, err := pevpm.Evaluate(prog, pevpm.Options{
			Procs: pl.NumProcs(), DB: modes[c.label],
			Seed:   sim.SubSeed(p.Seed, fmt.Sprintf("fig6:%s:%s:rep%d", c.label, pl, c.rep)),
			NodeOf: pl.NodeOf,
		})
		if err != nil {
			return 0, metrics.Snapshot{}, fmt.Errorf("experiments: predicting %v with %s: %w", pl, c.label, err)
		}
		return rep.Makespan, rep.Metrics, nil
	})
	if err != nil {
		return nil, err
	}

	var processorSeconds float64
	for i := 0; i < len(cells); {
		c := cells[i]
		pl := pls[c.pi]
		procs := pl.NumProcs()
		first := i
		var sum stats.Summary
		for ; i < len(cells) && cells[i].pi == c.pi && cells[i].label == c.label; i++ {
			sum.Add(makespans[i])
		}
		label := c.label
		var point float64
		if label == "" {
			label = "measured"
			// The point estimate is replication 0 alone — the exact run
			// the figure plotted before replication existed; the extra
			// replications only feed the error bar. Processor time stays
			// the single-execution accounting for the same reason.
			point = serial / makespans[first]
			processorSeconds += makespans[first] * float64(procs)
		} else {
			point = serial / sum.Mean
		}
		lo, hi := speedupBounds(serial, point, sum)
		appendPoint(series[label], pl.String(), procs, point, lo, hi)
	}

	out := &Figure6Result{ProcessorSeconds: processorSeconds}
	if elapsed != nil {
		out.EvalSeconds = elapsed() - markStart
	}
	for _, label := range Figure6Modes {
		out.Series = append(out.Series, *series[label])
	}
	return out, nil
}

// speedupBounds maps a 95% Student-t interval on the replicated
// makespans into speedup space (speedup = serial/makespan, so the
// bounds swap). A small-n interval whose lower makespan bound crosses
// zero is clamped to the fastest observed run, and the bar is widened
// to include the plotted point — error bars that exclude their own
// point read as a bug, not as honesty about replication-0 plotting.
func speedupBounds(serial, point float64, sum stats.Summary) (lo, hi float64) {
	iv := stats.StudentCI(sum, 0.95)
	mlo := iv.Lo
	if mlo <= 0 {
		mlo = sum.Min
	}
	lo, hi = serial/iv.Hi, serial/mlo
	if point < lo {
		lo = point
	}
	if point > hi {
		hi = point
	}
	return lo, hi
}

func appendPoint(s *SpeedupSeries, config string, procs int, speedup, lo, hi float64) {
	s.Configs = append(s.Configs, config)
	s.Procs = append(s.Procs, procs)
	s.Speedups = append(s.Speedups, speedup)
	s.Los = append(s.Los, lo)
	s.His = append(s.His, hi)
}

// SeriesByLabel returns the series with the given label.
func (r *Figure6Result) SeriesByLabel(label string) (SpeedupSeries, bool) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, true
		}
	}
	return SpeedupSeries{}, false
}
