package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one printed metric and its unit. The lists below are
// the end_to_end and per_layer sections of BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"ops_per_cpu_s", "op/cpu-s"},
	{"setup_s", "s"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"call_cpu_p50_ms", "ms"},
	{"call_cpu_p95_ms", "ms"},
}

var perLayerDefs = []metricDef{
	{"sim.events", "count"},
	{"sim.wall_ns_per_event", "ns"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.windows", "count"},
	{"sim.shard_speedup", "ratio"},
	{"netsim.transfers", "count"},
	{"netsim.retries", "count"},
	{"netsim.delivered_per_attempt", "ratio"},
	{"netsim.ns_per_transfer", "ns"},
	{"netsim.allocs_per_transfer", "count"},
	{"mpi.messages", "count"},
	{"mpi.rendezvous_share", "ratio"},
	{"mpi.barriers", "count"},
	{"mpi.ns_per_message", "ns"},
	{"stats.ns_per_add", "ns"},
	{"stats.ns_per_sample", "ns"},
	{"stats.ns_per_quantile", "ns"},
	{"mpibench.samples", "count"},
	{"mpibench.cell_p50_s", "s"},
	{"mpibench.cell_max_s", "s"},
	{"pevpm.draws", "count"},
	{"pevpm.sweeps", "count"},
	{"pevpm.evaluate_p50_ms", "ms"},
	{"pevpm.wall_ns_per_draw", "ns"},
	{"pevpm.ns_per_draw", "ns"},
	{"pevpm.modelled_cpu_s_per_s", "ratio"},
	{"pevpm.db_fit_s", "s"},
	{"pevpm.prediction_error_pct", "%"},
	{"workloads.execute_s", "s"},
	{"mpilint.analyze_us", "us"},
	{"service.stage_lint_us", "us"},
	{"service.stage_db_us", "us"},
	{"service.stage_predict_us", "us"},
	{"service.stage_encode_us", "us"},
	{"service.response_hit_ratio", "ratio"},
	{"service.db_hit_ratio", "ratio"},
	{"service.db_builds", "count"},
	{"service.replay_p50_ms", "ms"},
	{"service.reseed_p50_ms", "ms"},
	{"service.rebench_p50_ms", "ms"},
	{"service.ns_per_hit", "ns"},
	{"experiments.patternrun_s", "s"},
	{"residual_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// runGated is the end-to-end run: set up setupReps times (setup_s is
// the median CPU time), then measure for --seconds with tracing off.
func runGated(w workload, o options, out io.Writer) (*result, error) {
	var b bench
	var setups []float64
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	cal := &calibrator{}
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		b = w.new(o)
		cal.sample()
		start := cpuNow()
		if err := b.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		end := cpuNow()
		cal.sample()
		setups = append(setups, (end-start).Seconds()*cal.scale(start, end))
	}
	p, err := b.measure(limit{deadline: time.Now().Add(o.seconds), cal: cal}, nil)
	if err != nil {
		return nil, err
	}
	cal.sample()
	calls := p.callSeconds()
	unscaled := *p
	unscaled.cal = nil
	rawCalls := unscaled.callSeconds()
	tail := tailPermille(len(calls))
	fmt.Fprintf(out, "perfbench %s seed=%d setups_s=%.4f\n", o.workload, o.seed, setups)
	fmt.Fprintf(out, "  measured %.3f s wall, %.3f s CPU: %d ops attempted, %d failed, %d rounds, %d reference loops (%s)\n",
		p.wall.Seconds(), p.cpu.Seconds(), p.attempted, p.failed, len(p.roundOps), len(cal.samples), cal.summary())
	fmt.Fprintf(out, "  %.1f ops/wall-s, %.1f ops/cpu-s as measured, %.1f ops/cpu-s scaled to the nominal host\n",
		float64(p.attempted)/p.wall.Seconds(), unscaled.opsPerCPUSec(), p.opsPerCPUSec())
	fmt.Fprintf(out, "  calls %d: CPU p50 %.3f ms, p95 %.3f ms scaled (%.3f, %.3f as measured; highest percentile with ≥10 calls beyond it: p%g)\n",
		len(calls), quantile(calls, 0.5)*1e3, quantile(calls, 0.95)*1e3,
		quantile(rawCalls, 0.5)*1e3, quantile(rawCalls, 0.95)*1e3, float64(tail)/10)
	printFigures(out, p)
	fmt.Fprintf(out, "  digest fnv64a=%016x over %s\n", p.digest, p.digestOf)
	for _, pr := range p.problems {
		fmt.Fprintf(out, "  FAILED %s\n", pr)
	}
	vals := map[string]float64{
		"ops_per_cpu_s":   p.opsPerCPUSec(),
		"setup_s":         quantile(setups, 0.5),
		"success_ratio":   1 - float64(p.failed)/float64(p.attempted),
		"peak_rss_mb":     peakRSSMB(),
		"call_cpu_p50_ms": quantile(calls, 0.5) * 1e3,
		"call_cpu_p95_ms": quantile(calls, 0.95) * 1e3,
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: pick(endToEndDefs, vals)}, nil
}

// printFigures logs the workload's own figures (prediction error,
// request counts per class) in a gated run.
func printFigures(out io.Writer, p *pass) {
	for _, k := range sortedKeys(p.figures) {
		fmt.Fprintf(out, "  %s = %.6g\n", k, p.figures[k])
	}
}

// runTraced is the per-layer run: the same fixed, seeded work twice,
// untraced and traced, then the layer probe and the attribution.
func runTraced(w workload, o options, out io.Writer) (*result, error) {
	lim := limit{rounds: w.tracedRounds}
	base, err := untracedPass(w, o, lim)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	b := w.new(o)
	defer b.close()
	if err := b.setup(tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	gc0 := readGC()
	p, err := b.measure(lim, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	gc := readGC().since(gc0)
	b.close()
	if p.digest != base.digest {
		p.fail(p.attempted, "tracing changed the outputs: digest %016x, untraced %016x", p.digest, base.digest)
	}
	if err := b.afterTrace(tr, p); err != nil {
		return nil, err
	}
	raw, costs, err := runProbe(tr)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	spans := tr.snapshot()
	at := attribute(o.workload, p.counts, costs, gc, p.cpu.Seconds(), sum(p.callSeconds()))
	vals := perLayerValues(p, base, costs, spans, at)

	fmt.Fprintf(out, "perfbench %s seed=%d traced: %d ops, %d failed\n", o.workload, o.seed, p.attempted, p.failed)
	fmt.Fprintf(out, "  untraced %.3f s CPU (%.1f ops/cpu-s), traced %.3f s CPU (%.1f ops/cpu-s), %d spans\n",
		base.cpu.Seconds(), base.opsPerCPUSec(), p.cpu.Seconds(), p.opsPerCPUSec(), len(spans))
	fmt.Fprintf(out, "  digest fnv64a=%016x over %s (untraced pass: %016x)\n", p.digest, p.digestOf, base.digest)
	at.print(out)
	self := selfByName(spans)
	fmt.Fprintf(out, "  span self time (s):\n")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(out, "    %-28s %10.4f\n", name, self[name])
	}
	for _, pr := range append(base.problems, p.problems...) {
		fmt.Fprintf(out, "  FAILED %s\n", pr)
	}
	path, err := writeTrace(o, spans, self, raw, costs, at, p, vals)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  spans, probe and attribution written to %s\n", path)
	attempted, failed := base.attempted+p.attempted, base.failed+p.failed
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: pick(perLayerDefs, vals)}, nil
}

// untracedPass sets up a fresh instance and measures it untraced.
func untracedPass(w workload, o options, lim limit) (*pass, error) {
	b := w.new(o)
	defer b.close()
	if err := b.setup(nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return b.measure(lim, nil)
}

// perLayerValues computes every per-layer metric of a traced pass.
// Counts cover set-up and the pass; a layer a workload never calls
// reads 0.
func perLayerValues(p, base *pass, u unitCosts, spans []span, at attribution) map[string]float64 {
	all := p.counts
	all.add(p.setupCounts)
	v := map[string]float64{
		"sim.events":                 float64(all.Events),
		"sim.ns_per_event":           u.SimEvent,
		"sim.allocs_per_event":       u.SimAllocs,
		"sim.windows":                float64(all.Windows),
		"netsim.transfers":           float64(all.Transfers),
		"netsim.retries":             float64(all.Retries),
		"netsim.ns_per_transfer":     u.NetTransfer,
		"netsim.allocs_per_transfer": u.NetAllocs,
		"mpi.messages":               float64(all.messages()),
		"mpi.barriers":               float64(all.Barriers),
		"mpi.ns_per_message":         u.MPIMessage,
		"stats.ns_per_add":           u.StatsAdd,
		"stats.ns_per_sample":        u.StatsSample,
		"stats.ns_per_quantile":      u.StatsQuantile,
		"mpibench.samples":           float64(all.Samples),
		"pevpm.draws":                float64(all.Draws),
		"pevpm.sweeps":               float64(all.Sweeps),
		"pevpm.ns_per_draw":          u.PEVPMDraw,
		"mpilint.analyze_us":         u.LintCall / 1e3,
		"service.ns_per_hit":         u.ServiceHit,
		"residual_pct":               at.ResidualPct,
	}
	for k, x := range p.figures {
		v[k] = x
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Wall time of the calls that simulate, per event they ran: cells,
	// reference executions and pattern runs (spans), or the service's
	// database stage.
	simS := sum(durations(opSpans(spans), "mpibench.Run")) + sum(durations(opSpans(spans), "workloads.Execute")) +
		sum(durations(opSpans(spans), "experiments.PatternRun"))
	if t, ok := p.figures["service.stage_db_total_s"]; ok {
		v["sim.wall_ns_per_event"] = ratio(t*1e9, float64(p.counts.Events))
	} else {
		v["sim.wall_ns_per_event"] = ratio(simS*1e9, float64(all.Events))
	}
	v["netsim.delivered_per_attempt"] = ratio(float64(all.Transfers), float64(all.Transfers+all.Retries))
	v["mpi.rendezvous_share"] = ratio(float64(all.Rendezvous), float64(all.messages()))
	cells := durations(opSpans(spans), "mpibench.Run")
	if len(cells) > 0 {
		v["mpibench.cell_p50_s"] = quantile(cells, 0.5)
		v["mpibench.cell_max_s"] = quantile(cells, 1)
	}
	evals := durations(spans, "pevpm.Evaluate")
	if len(evals) > 0 {
		v["pevpm.evaluate_p50_ms"] = quantile(evals, 0.5) * 1e3
		v["pevpm.wall_ns_per_draw"] = ratio(sum(evals)*1e9, float64(p.counts.Draws))
	} else if t, ok := p.figures["service.stage_predict_total_s"]; ok {
		v["pevpm.wall_ns_per_draw"] = ratio(t*1e9, float64(p.counts.Draws))
	}
	if runs := durations(opSpans(spans), "experiments.PatternRun"); len(runs) > 0 {
		v["experiments.patternrun_s"] = quantile(runs, 0.5)
	}
	v["trace_overhead_pct"] = (base.opsPerCPUSec() - p.opsPerCPUSec()) / base.opsPerCPUSec() * 100
	return v
}

// opSpans drops set-up, warm-up and probe spans (negative op ids).
func opSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Op >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// pick returns the defined metrics, each with its unit; an undefined
// value reads 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// writeTrace saves the spans (with their counts), the probe loops, the
// unit costs, the attribution and the per-layer metrics, once, at the
// end of the run.
func writeTrace(o options, spans []span, self map[string]float64, raw probeRaw, costs unitCosts,
	at attribution, p *pass, vals map[string]float64) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace.json", o.workload, o.seed))
	data, err := json.MarshalIndent(struct {
		Workload    string             `json:"workload"`
		Seed        uint64             `json:"seed"`
		Counts      counts             `json:"counts"`
		SetupCounts counts             `json:"setup_counts"`
		Probe       probeRaw           `json:"probe"`
		UnitCosts   unitCosts          `json:"unit_costs"`
		Attribution attribution        `json:"attribution"`
		Metrics     map[string]float64 `json:"metrics"`
		SelfS       map[string]float64 `json:"span_self_s"`
		Spans       []span             `json:"spans"`
	}{o.workload, o.seed, p.counts, p.setupCounts, raw, costs, at, vals, self, spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
