package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The perturbed sweep reruns figure-style measurements under every fault
// scenario preset and asks the paper's question in degraded conditions:
// does a PEVPM model built from benchmarks taken under a fault still
// track a real execution under the same fault? Each scenario's schedule
// is deterministic data derived from (Seed, scenario name), and every
// simulation below is an independent sweep cell with its own engine and
// SubSeed substream, so the whole report is bit-identical at any worker
// count.

// perturbedSpanSeconds is the window span fault scenarios are drawn
// over. It must be on the order of the simulated runtimes below (tens
// of milliseconds for the benchmark measurement phases, ~0.1 s for the
// Jacobi execution) — windows drawn over a much longer span would all
// open after the simulations finish and the "perturbed" runs would be
// healthy runs.
const perturbedSpanSeconds = 0.05

// perturbedFaultNodes is how many (block-placed) physical nodes the
// scenarios may target — the nodes every sub-experiment below actually
// occupies, so a drawn fault always lands on hardware in use.
const perturbedFaultNodes = 4

// PerturbedBenchRow compares one (op, size) distribution between the
// healthy cluster and one fault scenario.
type PerturbedBenchRow struct {
	Op            mpibench.Op `json:"op"`
	Size          int         `json:"size"`
	HealthyMeanUs float64     `json:"healthy_mean_us"`
	HealthyMaxUs  float64     `json:"healthy_max_us"`
	FaultMeanUs   float64     `json:"fault_mean_us"`
	FaultMaxUs    float64     `json:"fault_max_us"`
	Retries       uint64      `json:"retries"`     // perturbed run's retransmissions
	FaultDrops    uint64      `json:"fault_drops"` // drops attributed to the schedule
}

// ScenarioReport is the perturbed sweep's output for one scenario.
type ScenarioReport struct {
	Scenario string   `json:"scenario"`
	Rules    []string `json:"rules"`

	Bench []PerturbedBenchRow `json:"bench"`

	// Model tracking: a Jacobi execution under the scenario versus a
	// PEVPM prediction whose database was benchmarked under the same
	// scenario.
	MeasuredMakespan  float64 `json:"measured_makespan_s"`
	PredictedMakespan float64 `json:"predicted_makespan_s"`
	ModelErrorPct     float64 `json:"model_error_pct"`
}

// PerturbedResult is the full perturbed-sweep report.
type PerturbedResult struct {
	Span              float64          `json:"span_s"`
	HealthyMeasured   float64          `json:"healthy_measured_s"`
	HealthyPredicted  float64          `json:"healthy_predicted_s"`
	HealthyModelError float64          `json:"healthy_model_error_pct"`
	Scenarios         []ScenarioReport `json:"scenarios"`
}

// perturbedBenchSpecs are the figure-style measurements rerun per
// scenario: small- and large-message point-to-point (Figure 1/2 sizes,
// straddling the eager/rendezvous switch) and one collective.
func perturbedBenchSpecs(p Params) []mpibench.Spec {
	base := mpibench.Spec{
		Repetitions: p.Repetitions,
		WarmUp:      p.WarmUp,
		SyncProbes:  p.SyncProbes,
		Seed:        p.Seed,
	}
	isend := base
	isend.Op = mpibench.OpIsend
	isend.Sizes = []int{1024, 16384}
	bcast := base
	bcast.Op = mpibench.OpBcast
	bcast.Sizes = []int{1024}
	return []mpibench.Spec{isend, bcast}
}

// PerturbedSweep runs every fault-scenario preset (plus the healthy
// baseline) through the benchmark set and the Jacobi
// measured-vs-predicted comparison. Scenario order follows
// cluster.ScenarioNames(); all randomness derives from p.Seed.
func PerturbedSweep(cfg cluster.Config, p Params) (*PerturbedResult, error) {
	names := cluster.ScenarioNames()
	// Scenario index 0 is the healthy baseline (nil schedule).
	scheds := make([]*faults.Schedule, 1, len(names)+1)
	for _, name := range names {
		s, err := cluster.Scenario(name, p.Seed, cluster.ScenarioEnv{
			Nodes: perturbedFaultNodes, Segments: cfg.NumSegments(), Span: perturbedSpanSeconds,
		})
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, s)
	}

	benchPl, err := cluster.NewBlockPlacement(&cfg, 8, 1)
	if err != nil {
		return nil, err
	}
	jacobiPl, err := cluster.NewBlockPlacement(&cfg, perturbedFaultNodes, 1)
	if err != nil {
		return nil, err
	}
	j := workloads.Jacobi{
		XSize:        256,
		Iterations:   p.Iterations,
		SweepSeconds: cluster.JacobiSweepSeconds,
	}
	prog, err := j.Model()
	if err != nil {
		return nil, err
	}
	specs := perturbedBenchSpecs(p)

	// Phase 1: every simulation that does not depend on another cell —
	// per scenario, the benchmark runs, the measured Jacobi execution,
	// and the OpSend benchmark that becomes the prediction database.
	nScen := len(scheds)
	perScen := len(specs) + 2 // benches + measured jacobi + DB bench
	benchRes := make([][]*mpibench.Result, nScen)
	execRes := make([]workloads.ExecResult, nScen)
	dbRes := make([]*mpibench.Result, nScen)
	for i := range benchRes {
		benchRes[i] = make([]*mpibench.Result, len(specs))
	}
	scenName := func(si int) string {
		if si == 0 {
			return "healthy"
		}
		return names[si-1]
	}
	_, err = sweep.Map(p.workers(), nScen*perScen, p.Metrics, func(i int) (struct{}, metrics.Snapshot, error) {
		si, kind := i/perScen, i%perScen
		sched := scheds[si]
		switch {
		case kind < len(specs):
			s := specs[kind]
			s.Placement = benchPl
			s.Faults = sched
			s.Seed = sim.SubSeed(p.Seed, fmt.Sprintf("perturbed:%s:bench%d", scenName(si), kind))
			r, err := mpibench.Run(cfg, s)
			if err != nil {
				return struct{}{}, metrics.Snapshot{}, fmt.Errorf("experiments: perturbed %s %s: %w", scenName(si), s.Op, err)
			}
			benchRes[si][kind] = r
			return struct{}{}, r.Metrics, nil
		case kind == len(specs):
			r, err := workloads.ExecuteFaults(cfg, jacobiPl,
				sim.SubSeed(p.Seed, "perturbed:"+scenName(si)+":measured"), sched, j.Run)
			if err != nil {
				return struct{}{}, metrics.Snapshot{}, fmt.Errorf("experiments: perturbed %s jacobi: %w", scenName(si), err)
			}
			execRes[si] = r
			return struct{}{}, r.Metrics, nil
		default:
			s := mpibench.Spec{
				Op:          mpibench.OpSend,
				Sizes:       []int{0, 256, 1024, 4096},
				Placement:   jacobiPl,
				Repetitions: p.Repetitions,
				WarmUp:      p.WarmUp,
				SyncProbes:  p.SyncProbes,
				Faults:      sched,
				Seed:        sim.SubSeed(p.Seed, "perturbed:"+scenName(si)+":db"),
			}
			r, err := mpibench.Run(cfg, s)
			if err != nil {
				return struct{}{}, metrics.Snapshot{}, fmt.Errorf("experiments: perturbed %s db: %w", scenName(si), err)
			}
			dbRes[si] = r
			return struct{}{}, r.Metrics, nil
		}
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: PEVPM predictions need phase 1's database. Each scenario's
	// DB is built once, serially — NewEmpiricalDB freezes the shared
	// histograms, after which the DB is read-only and safe to share
	// across the concurrent evaluation cells below.
	dbs := make([]*pevpm.EmpiricalDB, nScen)
	for si := range dbs {
		set := &mpibench.Set{Cluster: cfg.Name}
		set.Add(dbRes[si])
		db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: perturbed %s db: %w", scenName(si), err)
		}
		dbs[si] = db
	}

	// EvalRuns Monte-Carlo replications per scenario form the second
	// sweep.
	runs := p.EvalRuns
	if runs < 1 {
		runs = 1
	}
	makespans, err := sweep.Map(p.workers(), nScen*runs, p.Metrics, func(i int) (float64, metrics.Snapshot, error) {
		si, rep := i/runs, i%runs
		r, err := pevpm.Evaluate(prog, pevpm.Options{
			Procs: jacobiPl.NumProcs(), DB: dbs[si],
			Seed:   sim.SubSeed(p.Seed, fmt.Sprintf("perturbed:%s:eval%d", scenName(si), rep)),
			NodeOf: jacobiPl.NodeOf,
		})
		if err != nil {
			return 0, metrics.Snapshot{}, fmt.Errorf("experiments: perturbed %s prediction: %w", scenName(si), err)
		}
		return r.Makespan, r.Metrics, nil
	})
	if err != nil {
		return nil, err
	}
	predicted := func(si int) float64 {
		var sum stats.Summary
		for rep := 0; rep < runs; rep++ {
			sum.Add(makespans[si*runs+rep])
		}
		return sum.Mean
	}
	errorPct := func(measured, pred float64) float64 {
		if measured <= 0 {
			return math.NaN()
		}
		return math.Abs(pred-measured) / measured * 100
	}

	out := &PerturbedResult{
		Span:             perturbedSpanSeconds,
		HealthyMeasured:  execRes[0].Makespan.Seconds(),
		HealthyPredicted: predicted(0),
	}
	out.HealthyModelError = errorPct(out.HealthyMeasured, out.HealthyPredicted)
	for si := 1; si < nScen; si++ {
		rep := ScenarioReport{Scenario: names[si-1]}
		for _, r := range scheds[si].Rules {
			rep.Rules = append(rep.Rules, r.String())
		}
		for ki, spec := range specs {
			healthy, fault := benchRes[0][ki], benchRes[si][ki]
			for _, size := range spec.Sizes {
				hp, ok := healthy.PointFor(size)
				if !ok {
					return nil, fmt.Errorf("experiments: missing healthy %s %dB", spec.Op, size)
				}
				fp, ok := fault.PointFor(size)
				if !ok {
					return nil, fmt.Errorf("experiments: missing %s %s %dB", rep.Scenario, spec.Op, size)
				}
				rep.Bench = append(rep.Bench, PerturbedBenchRow{
					Op:            spec.Op,
					Size:          size,
					HealthyMeanUs: hp.Avg() * 1e6,
					HealthyMaxUs:  hp.Hist.Max() * 1e6,
					FaultMeanUs:   fp.Avg() * 1e6,
					FaultMaxUs:    fp.Hist.Max() * 1e6,
					Retries:       fault.Retries,
					FaultDrops:    fault.FaultDrops,
				})
			}
		}
		rep.MeasuredMakespan = execRes[si].Makespan.Seconds()
		rep.PredictedMakespan = predicted(si)
		rep.ModelErrorPct = errorPct(rep.MeasuredMakespan, rep.PredictedMakespan)
		out.Scenarios = append(out.Scenarios, rep)
	}
	return out, nil
}
