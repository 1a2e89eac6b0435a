package pevpm

import (
	"fmt"

	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Modes are the paper's prediction variants in Figure 6's order: "dist"
// samples the measured distributions; "avg-nxp" takes their averages;
// "avg-2x1" and "min-2x1" take the 2×1 (ping-pong) average and minimum
// for every message, the simplistic modes the figure shows misleading.
var Modes = []string{"dist", "avg-nxp", "avg-2x1", "min-2x1"}

// ModeDB derives the database a prediction mode draws from. It only
// wraps base, so a nil base checks the mode's name alone.
func ModeDB(base PerfDB, mode string) (PerfDB, error) {
	switch mode {
	case "dist":
		return base, nil
	case "avg-nxp":
		return Collapse(base, ModeMean), nil
	case "avg-2x1":
		return Collapse(FixContention(base, 2), ModeMean), nil
	case "min-2x1":
		return Collapse(FixContention(base, 2), ModeMin), nil
	}
	return nil, fmt.Errorf("mode: %q (want dist, avg-nxp, avg-2x1 or min-2x1)", mode)
}

// PredictSpec configures one prediction.
type PredictSpec struct {
	Procs    int
	NodeOf   func(proc int) int // as Options.NodeOf
	Mode     string             // one of Modes; "" selects "dist"
	Runs     int                // Monte-Carlo replications, at least 1
	Seed     uint64
	Quantile float64    // whose bootstrap interval to report; 0 selects the median
	Workers  int        // replications evaluating at once (0 = GOMAXPROCS)
	Trace    *trace.Log // when non-nil, receives the detail evaluation's timeline

	// Evaluate runs every evaluation, the detail one included (nil =
	// Evaluate), so a caller can bound or count them.
	Evaluate func(*Program, Options) (*Report, error)
}

// Prediction is a model's Monte-Carlo makespan distribution plus one
// detail evaluation's attribution. Its JSON is pevpmd's "prediction".
type Prediction struct {
	Runs       int            `json:"runs"`
	Mean       float64        `json:"mean_s"`
	Std        float64        `json:"std_s"`
	Min        float64        `json:"min_s"`
	Max        float64        `json:"max_s"`
	MeanCI     stats.Interval `json:"mean_ci"`
	Quantile   float64        `json:"quantile"`
	QuantileCI stats.Interval `json:"quantile_ci"`

	// Sweeps, Messages, the per-process average Breakdown and the top
	// five HotSpots come from the detail evaluation.
	Sweeps    int       `json:"sweeps"`
	Messages  uint64    `json:"messages"`
	Breakdown Breakdown `json:"breakdown"`
	HotSpots  []HotSpot `json:"hot_spots,omitempty"`

	// Metrics folds the replications' snapshots in replication order.
	Metrics metrics.Snapshot `json:"-"`
}

// Predict is the paper's prediction procedure: a detail evaluation for
// attribution and the optional trace, then Runs replications through
// sweep.Map, folded in replication order into the makespan summary, a
// 95% Student-t interval on the mean and a 95% bootstrap interval on
// the quantile. Each draws from its own substream of Seed, keyed
// "service:detail", "service:rep<i>" and "service:bootstrap" after the
// service that introduced them (its golden replies pin the keys), so
// neither Workers nor concurrent callers change a bit of the result.
func Predict(prog *Program, base PerfDB, spec PredictSpec) (*Prediction, error) {
	if spec.Runs < 1 {
		return nil, fmt.Errorf("pevpm: runs: %d (need at least 1)", spec.Runs)
	}
	if spec.Mode == "" {
		spec.Mode = "dist"
	}
	db, err := ModeDB(base, spec.Mode)
	if err != nil {
		return nil, fmt.Errorf("pevpm: %w", err)
	}
	if spec.Quantile == 0 {
		spec.Quantile = 0.5
	}
	if spec.Evaluate == nil {
		spec.Evaluate = Evaluate
	}
	opts := func(key string) Options {
		return Options{Procs: spec.Procs, DB: db, Seed: sim.SubSeed(spec.Seed, key), NodeOf: spec.NodeOf}
	}
	detailOpts := opts("service:detail")
	detailOpts.Trace = spec.Trace
	detail, err := spec.Evaluate(prog, detailOpts)
	if err != nil {
		return nil, err
	}

	// The fold takes the replications' snapshots alone, not the sweep's
	// own counters, so each cell keeps its snapshot and Map gets no
	// aggregate.
	snaps := make([]metrics.Snapshot, spec.Runs)
	makespans, err := sweep.Map(spec.Workers, spec.Runs, nil, func(i int) (float64, metrics.Snapshot, error) {
		rep, err := spec.Evaluate(prog, opts(fmt.Sprintf("service:rep%d", i)))
		if err != nil {
			return 0, metrics.Snapshot{}, err
		}
		snaps[i] = rep.Metrics
		return rep.Makespan, metrics.Snapshot{}, nil
	})
	if err != nil {
		return nil, err
	}
	var sum stats.Summary
	agg := metrics.NewAggregate()
	for i, m := range makespans {
		sum.Add(m)
		agg.Merge(snaps[i])
	}
	hot := detail.HotSpots()
	pred := &Prediction{
		Runs: spec.Runs, Mean: sum.Mean, Std: sum.Std(), Min: sum.Min, Max: sum.Max,
		MeanCI:   stats.StudentCI(sum, 0.95),
		Quantile: spec.Quantile,
		QuantileCI: stats.NewBootstrap(200).QuantileCI(
			makespans, spec.Quantile, 0.95, sim.NewCellRNG(spec.Seed, "service:bootstrap")),
		Sweeps:   detail.Sweeps,
		Messages: detail.MessagesSent,
		HotSpots: hot[:min(5, len(hot))],
		Metrics:  agg.Snapshot(),
	}
	bd := &pred.Breakdown
	for _, b := range detail.Breakdowns {
		bd.Compute, bd.SendBusy, bd.RecvWait = bd.Compute+b.Compute, bd.SendBusy+b.SendBusy, bd.RecvWait+b.RecvWait
	}
	if n := float64(len(detail.Breakdowns)); n > 0 {
		bd.Compute, bd.SendBusy, bd.RecvWait = bd.Compute/n, bd.SendBusy/n, bd.RecvWait/n
	}
	return pred, nil
}
