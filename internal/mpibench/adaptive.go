package mpibench

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// defaultDriftThreshold flags warmup non-stationarity for non-adaptive
// runs with Estimates on; adaptive runs take it from Target.
const defaultDriftThreshold = 4.0

// estConfig is the resolved set of estimate knobs attachEstimates uses:
// which quantile to interval, at what confidence level, with how many
// bootstrap resamples.
type estConfig struct {
	quantile  float64
	level     float64
	resamples int
}

// estDefaults resolves the estimate knobs for a spec: adaptive runs
// inherit them from the stopping rule, plain Estimates runs get the
// median at 95% with 200 resamples.
func estDefaults(spec Spec) estConfig {
	c := estConfig{quantile: 0.5, level: 0.95, resamples: 200}
	if spec.Target != nil {
		t := spec.Target.withDefaults(spec)
		c.quantile = t.Quantile
		c.level = t.Level
		c.resamples = t.Resamples
	}
	return c
}

// runAdaptive executes batches of repetitions until the bootstrap CI on
// the target quantile is narrower than Target.RelWidth on every message
// size, or Target.MaxBatches is hit. Every batch is an independent
// simulation with a sub-seeded engine, and every random draw — batch
// seeds, CI bootstraps, final estimates — comes from a named substream
// of Spec.Seed, so an adaptive run is exactly as reproducible as a
// fixed-count one and bit-identical at any sweep worker count. The spec
// arrives with defaults applied and validated.
func runAdaptive(cfg cluster.Config, spec Spec) (*Result, error) {
	t := spec.Target.withDefaults(spec)
	boot := stats.NewBootstrap(t.Resamples)
	agg := metrics.NewAggregate()

	var (
		merged      *Result
		samples     [][]float64 // accumulated across batches, per size
		firstPerRep [][]float64 // first batch's series for the drift check
		batches     int
		stopReason  = StopMaxBatches
	)
	for b := 0; b < t.MaxBatches; b++ {
		bs := spec
		bs.Target = nil
		bs.Estimates = false
		bs.Repetitions = t.Batch
		bs.Seed = sim.SubSeed(spec.Seed, fmt.Sprintf("adaptive:batch%d", b))
		res, raw, err := runBatch(cfg, bs)
		if err != nil {
			return nil, fmt.Errorf("mpibench: adaptive batch %d: %w", b, err)
		}
		batches = b + 1
		agg.Merge(res.Metrics)
		if merged == nil {
			merged = res
			samples = raw.samples
			firstPerRep = raw.perRep
		} else {
			mergeResults(merged, res)
			for si := range samples {
				samples[si] = append(samples[si], raw.samples[si]...)
			}
		}
		if targetMet(samples, t, spec.Seed, b, boot) {
			stopReason = StopTargetMet
			break
		}
	}

	merged.Metrics = agg.Snapshot()
	m := newManifest(&cfg, spec)
	m.Adaptive = &t
	m.Batches = batches
	m.StopReason = stopReason
	merged.Manifest = m

	attachEstimates(merged, samples, spec, estConfig{
		quantile: t.Quantile, level: t.Level, resamples: t.Resamples,
	})
	markDrift(merged, firstPerRep, t.DriftThreshold)
	return merged, nil
}

// targetMet checks the stopping rule after batch b: every size's
// bootstrap CI on the target quantile must have relative half-width at
// or below Target.RelWidth. The bootstrap RNG is keyed on (batch, size)
// so the decision sequence is part of the reproducible record.
func targetMet(samples [][]float64, t Target, seed uint64, b int, boot *stats.Bootstrap) bool {
	for si, xs := range samples {
		if len(xs) < 2 {
			return false // cannot certify precision from nothing
		}
		rng := sim.NewCellRNG(seed, fmt.Sprintf("ci:batch%d:size%d", b, si))
		iv := boot.QuantileCI(xs, t.Quantile, t.Level, rng)
		if iv.RelHalfWidth() > t.RelWidth {
			return false
		}
	}
	return true
}

// mergeResults folds a later batch's result into the accumulated one.
// Distributions merge bin-exactly (equal BinWidth by construction),
// residuals take the worst case, counters add.
func mergeResults(dst, src *Result) {
	for i := range dst.Points {
		dst.Points[i].Hist.Merge(src.Points[i].Hist)
		if dst.Points[i].MaxHist != nil && src.Points[i].MaxHist != nil {
			dst.Points[i].MaxHist.Merge(src.Points[i].MaxHist)
		}
	}
	if len(dst.Points) > 0 {
		dst.Samples = dst.Points[len(dst.Points)-1].Hist.Count()
	}
	if src.SyncResidual > dst.SyncResidual {
		dst.SyncResidual = src.SyncResidual
	}
	dst.Retries += src.Retries
	dst.FaultDrops += src.FaultDrops
}

// attachEstimates computes each Point's Estimates from the raw samples:
// a Student-t CI on the mean, a percentile-bootstrap CI on the chosen
// quantile, and the median/trimmed-mean/MAD robust trio. The bootstrap
// RNG is a named substream of the spec seed, independent of worker
// count and of everything the simulation itself drew.
func attachEstimates(res *Result, samples [][]float64, spec Spec, c estConfig) {
	boot := stats.NewBootstrap(c.resamples)
	for si, xs := range samples {
		if len(xs) == 0 {
			continue
		}
		var sum stats.Summary
		for _, x := range xs {
			sum.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		scratch := make([]float64, 0, len(sorted))
		rng := sim.NewCellRNG(spec.Seed, fmt.Sprintf("est:size%d", si))
		res.Points[si].Est = &Estimates{
			Mean:        stats.StudentCI(sum, c.level),
			Quantile:    c.quantile,
			QuantileCI:  boot.QuantileCI(xs, c.quantile, c.level, rng),
			Median:      stats.Median(sorted),
			TrimmedMean: stats.TrimmedMean(sorted, 0.1),
			MAD:         stats.MAD(sorted, scratch),
		}
	}
}

// markDrift records the worst per-size warmup-drift statistic on the
// result and flags it when it exceeds the threshold — the signal that
// the warmup phase was too short and the measured series is still
// settling. See stats.DriftStat for the statistic itself.
func markDrift(res *Result, perRep [][]float64, threshold float64) {
	worst := 0.0
	for _, series := range perRep {
		if d := stats.DriftStat(series); d > worst {
			worst = d
		}
	}
	res.WarmupDrift = worst
	res.DriftFlagged = worst > threshold
}
