package repro

// One benchmark per figure of the paper, plus the ablation benches
// DESIGN.md calls out. The figure benches run a reduced-density version
// of each experiment and report the paper's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` doubles as a regression
// harness for the reproduction (absolute numbers are sim-model outputs;
// the metrics are the shape quantities compared in EXPERIMENTS.md).

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/netsim"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Repetitions = 60
	p.Iterations = 200
	p.EvalRuns = 3
	return p
}

func findCurve(b *testing.B, curves []experiments.Curve, label string) experiments.Curve {
	b.Helper()
	for _, c := range curves {
		if c.Label == label {
			return c
		}
	}
	b.Fatalf("missing curve %q", label)
	return experiments.Curve{}
}

func curveAt(b *testing.B, c experiments.Curve, size int) float64 {
	b.Helper()
	for i, s := range c.Sizes {
		if s == size {
			return c.Micros[i]
		}
	}
	b.Fatalf("curve %q missing size %d", c.Label, size)
	return 0
}

// BenchmarkFigure1SmallMessageLatency regenerates Figure 1 and reports
// the paper's quoted contention ratio: the 1 KB average at 64×1 relative
// to 2×1 (the paper reports ~1.7).
func BenchmarkFigure1SmallMessageLatency(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		curves, err := experiments.Figure1(cluster.Perseus(), p)
		if err != nil {
			b.Fatal(err)
		}
		r2 := curveAt(b, findCurve(b, curves, "2x1"), 1024)
		r64 := curveAt(b, findCurve(b, curves, "64x1"), 1024)
		b.ReportMetric(r64/r2, "contention-ratio-1KB")
		b.ReportMetric(r2, "us-per-op-2x1-1KB")
	}
}

// BenchmarkFigure2LargeMessageLatency regenerates Figure 2 and reports
// the 16 KB two-process goodput (paper: 81 Mbit/s) and the saturation
// ratio of 64×1 to 8×1 at 16 KB.
func BenchmarkFigure2LargeMessageLatency(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		curves, err := experiments.Figure2(cluster.Perseus(), p)
		if err != nil {
			b.Fatal(err)
		}
		t2 := curveAt(b, findCurve(b, curves, "2x1"), 16384)
		b.ReportMetric(16384*8/(t2/1e6)/1e6, "Mbit-goodput-2x1-16KB")
		sat := curveAt(b, findCurve(b, curves, "64x1"), 16384) /
			curveAt(b, findCurve(b, curves, "8x1"), 16384)
		b.ReportMetric(sat, "saturation-ratio-64x1-16KB")
	}
}

// BenchmarkFigure3SmallMessagePDFs regenerates the high-contention small
// message distributions and reports the dispersion (std/mean) of the
// 1 KB profile at 64×2.
func BenchmarkFigure3SmallMessagePDFs(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		pdfs, err := experiments.Figure3(cluster.Perseus(), p)
		if err != nil {
			b.Fatal(err)
		}
		for _, pdf := range pdfs {
			if pdf.Size == 1024 {
				b.ReportMetric((pdf.Mean-pdf.Min)/pdf.Mean, "rel-spread-64x2-1KB")
			}
		}
	}
}

// BenchmarkFigure4SaturationPDFs regenerates the saturated distributions
// and reports the tail length (max/mean) of the 16 KB 64×1 profile,
// which the retransmission-timeout outliers dominate.
func BenchmarkFigure4SaturationPDFs(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		pdfs, err := experiments.Figure4(cluster.Perseus(), p)
		if err != nil {
			b.Fatal(err)
		}
		for _, pdf := range pdfs {
			if pdf.Size == 16384 {
				b.ReportMetric(pdf.Max/pdf.Mean, "tail-ratio-64x1-16KB")
			}
		}
	}
}

// BenchmarkFigure6JacobiSpeedup regenerates the speedup comparison and
// reports the worst distribution-mode prediction error (paper: ≤5%) and
// the worst ping-pong-mode error (the paper's "misleading" baseline).
func BenchmarkFigure6JacobiSpeedup(b *testing.B) {
	p := benchParams()
	p.MaxNodes = 32
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		res, err := experiments.Figure6(cluster.Perseus(), p, nil)
		if err != nil {
			b.Fatal(err)
		}
		measured, _ := res.SeriesByLabel("measured")
		dist, _ := res.SeriesByLabel("pevpm distributions")
		ping, _ := res.SeriesByLabel("pevpm min 2x1")
		worstDist, worstPing := 0.0, 0.0
		for j := range measured.Procs {
			if e := math.Abs(dist.Speedups[j]-measured.Speedups[j]) / measured.Speedups[j]; e > worstDist {
				worstDist = e
			}
			if e := math.Abs(ping.Speedups[j]-measured.Speedups[j]) / measured.Speedups[j]; e > worstPing {
				worstPing = e
			}
		}
		b.ReportMetric(worstDist*100, "worst-dist-error-%")
		b.ReportMetric(worstPing*100, "worst-pingpong-error-%")
	}
}

// BenchmarkPEVPMEvaluationCost measures the paper's §6 cost claim: how
// many seconds of modelled processor time one wall-clock second of PEVPM
// evaluation covers (the paper reports 67.5× on one CPU of Perseus).
func BenchmarkPEVPMEvaluationCost(b *testing.B) {
	cfg := cluster.Perseus()
	j := workloads.Jacobi{XSize: 256, Iterations: 2000, SweepSeconds: cluster.JacobiSweepSeconds}
	prog, err := j.Model()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := cluster.NewPlacement(&cfg, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: []int{1024}, Repetitions: 60, Seed: 3,
	}, []cluster.Placement{pl})
	if err != nil {
		b.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	var modelled float64
	for i := 0; i < b.N; i++ {
		rep, err := pevpm.Evaluate(prog, pevpm.Options{
			Procs: 16, DB: db, Seed: uint64(i), NodeOf: pl.NodeOf,
		})
		if err != nil {
			b.Fatal(err)
		}
		modelled += rep.Makespan * 16 // processor-seconds covered
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(modelled/wall, "modelled-cpu-s/wall-s")
	}
}

// BenchmarkMPISendRecv measures the simulator's throughput executing the
// fundamental operation pair, in simulated messages per wall second, and
// the allocations per simulated message, the job's set-up included.
func BenchmarkMPISendRecv(b *testing.B) {
	const msgs = 2000 // per job: 1000 exchanges on each of 2 ranks
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := workloads.Execute(cfg, pl, uint64(i), func(c *mpi.Comm) {
			partner := 1 - c.Rank()
			for k := 0; k < msgs/2; k++ {
				c.Sendrecv(partner, 0, 1024, partner, 0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(msgs*float64(b.N)/b.Elapsed().Seconds(), "sim-msgs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs*b.N), "allocs/msg")
}

// BenchmarkMPIExchange is MPIBench's measured exchange as a unit cost:
// each of 2 ranks posts Irecv, then Isend, waits for both with Waitall
// and hands them back with Free, 1000 times per job. It reports
// simulated messages per wall second and allocations per simulated
// message, the job's set-up included.
func BenchmarkMPIExchange(b *testing.B) {
	const msgs = 2000 // per job: 1000 exchanges on each of 2 ranks
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := workloads.Execute(cfg, pl, uint64(i), func(c *mpi.Comm) {
			partner := 1 - c.Rank()
			for k := 0; k < msgs/2; k++ {
				rr := c.Irecv(partner, 0)
				sr := c.Isend(partner, 0, 1024)
				c.Waitall(sr, rr)
				c.Free(sr, rr)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(msgs*float64(b.N)/b.Elapsed().Seconds(), "sim-msgs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs*b.N), "allocs/msg")
}

// BenchmarkMPIBarrier is the synchronisation MPIBench pays between
// repetitions as a unit cost: 64 ranks (64×1) run 100 barriers per
// job. It reports simulated barriers per wall second and the switches
// into each rank per barrier (resumes/rank/barrier, from
// sim/proc_resumes_total less each rank's start), the job's set-up
// included.
func BenchmarkMPIBarrier(b *testing.B) {
	const ranks, barriers = 64, 100
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, ranks, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var resumes uint64
	for i := 0; i < b.N; i++ {
		res, err := workloads.Execute(cfg, pl, uint64(i), func(c *mpi.Comm) {
			for k := 0; k < barriers; k++ {
				c.Barrier()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		n, _ := res.Metrics.Counter("sim", "proc_resumes_total")
		resumes += n - ranks
	}
	b.ReportMetric(barriers*float64(b.N)/b.Elapsed().Seconds(), "sim-barriers/s")
	b.ReportMetric(float64(resumes)/float64(ranks*barriers*b.N), "resumes/rank/barrier")
}

// BenchmarkNetsimTransfer measures raw network-model event throughput
// and reports the events each transfer schedules (events/op, read from
// the engine's sim/events_scheduled_total).
func BenchmarkNetsimTransfer(b *testing.B) {
	cfg := cluster.Perseus()
	e := sim.NewEngine(1)
	n := netsim.New(e, cfg)
	scheduled := e.Metrics().Counter("sim", "events_scheduled_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Transfer(i%64, (i+32)%64, 1024, nil)
		if i%1024 == 1023 {
			if _, err := e.Run(sim.Forever); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := e.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(scheduled.Value())/float64(b.N), "events/op")
}

// BenchmarkHistogramBinWidth is the DESIGN.md ablation on PEVPM's main
// error source, bin granularity: it evaluates the same model from the
// same measurements binned at three widths and reports the spread of the
// predictions.
func BenchmarkHistogramBinWidth(b *testing.B) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	j := workloads.Jacobi{XSize: 256, Iterations: 100, SweepSeconds: cluster.JacobiSweepSeconds}
	prog, err := j.Model()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var preds []float64
		for _, width := range []float64{2e-6, 20e-6, 200e-6} {
			set, err := mpibench.RunSweep(cfg, mpibench.Spec{
				Op: mpibench.OpSend, Sizes: []int{1024},
				Repetitions: 60, BinWidth: width, Seed: uint64(i + 1),
			}, []cluster.Placement{pl})
			if err != nil {
				b.Fatal(err)
			}
			db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
			if err != nil {
				b.Fatal(err)
			}
			pred, err := pevpm.Predict(prog, db, pevpm.PredictSpec{
				Procs: 8, NodeOf: pl.NodeOf, Runs: 5, Seed: 9,
			})
			if err != nil {
				b.Fatal(err)
			}
			preds = append(preds, pred.Mean)
		}
		var s stats.Summary
		for _, v := range preds {
			s.Add(v)
		}
		b.ReportMetric((s.Max-s.Min)/s.Mean*100, "binwidth-spread-%")
	}
}

// BenchmarkFittedVsEmpirical is the §2 "parametrised functions" ablation:
// predict the same Jacobi run from the raw histograms and from their
// best-fit parametric distributions, and report how far the two
// predictions diverge (small divergence = the fits capture what the
// model needs; the fitted database is ~100× smaller).
func BenchmarkFittedVsEmpirical(b *testing.B) {
	cfg := cluster.Perseus()
	var pls []cluster.Placement
	for _, n := range []int{2, 8, 16} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		pls = append(pls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: []int{0, 1024, 4096}, Repetitions: 80, Seed: 17,
	}, pls)
	if err != nil {
		b.Fatal(err)
	}
	empirical, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fitted, err := pevpm.NewFittedDBFrom(empirical)
	if err != nil {
		b.Fatal(err)
	}
	j := workloads.Jacobi{XSize: 256, Iterations: 150, SweepSeconds: cluster.JacobiSweepSeconds}
	prog, err := j.Model()
	if err != nil {
		b.Fatal(err)
	}
	pl := pls[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := pevpm.PredictSpec{Procs: 16, NodeOf: pl.NodeOf, Runs: 5, Seed: uint64(i + 1)}
		se, err := pevpm.Predict(prog, empirical, spec)
		if err != nil {
			b.Fatal(err)
		}
		sf, err := pevpm.Predict(prog, fitted, spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(math.Abs(sf.Mean-se.Mean)/se.Mean*100, "fitted-vs-empirical-%")
	}
}

// BenchmarkCollectiveTable regenerates the collective scaling companion
// data and reports the binomial broadcast's 4→16 process growth factor
// (≈2 for a tree, 4 for a linear algorithm).
func BenchmarkCollectiveTable(b *testing.B) {
	p := benchParams()
	p.MaxNodes = 16
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		rows, err := experiments.CollectiveTable(cluster.Perseus(), p, 1024)
		if err != nil {
			b.Fatal(err)
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
		if b4 > 0 {
			b.ReportMetric(b16/b4, "bcast-4to16-growth")
		}
	}
}

// BenchmarkPerfDBInterpolation is the DESIGN.md ablation on the bilinear
// quantile interpolation: cost per sample.
func BenchmarkPerfDBInterpolation(b *testing.B) {
	cfg := cluster.Perseus()
	var pls []cluster.Placement
	for _, n := range []int{2, 8, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		pls = append(pls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpIsend, Sizes: []int{0, 1024, 16384}, Repetitions: 60, Seed: 2,
	}, pls)
	if err != nil {
		b.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpIsend, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRNG(1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += db.Sample(r, 700+i%9000, 2+i%40)
	}
	_ = sink
}

// BenchmarkPlacementLocality quantifies the reproduction finding in
// EXPERIMENTS.md: benchmark distributions only transfer to applications
// whose traffic sees the same network locality. It predicts a
// block-placed Jacobi run (neighbour traffic mostly same-switch) and a
// scattered one (neighbour traffic cross-switch) from the same
// scattered-placement benchmark database, and reports both errors.
func BenchmarkPlacementLocality(b *testing.B) {
	cfg := cluster.Perseus()
	scatter, err := cluster.NewPlacement(&cfg, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	block, err := cluster.NewBlockPlacement(&cfg, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	var benchPls []cluster.Placement
	for _, n := range []int{2, 8, 32, 64} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchPls = append(benchPls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: []int{0, 1024, 4096}, Repetitions: 80, Seed: 23,
	}, benchPls)
	if err != nil {
		b.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		b.Fatal(err)
	}
	j := workloads.Jacobi{XSize: 256, Iterations: 200, SweepSeconds: cluster.JacobiSweepSeconds}
	prog, err := j.Model()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		predErr := func(pl cluster.Placement, label string) {
			measured, err := workloads.Execute(cfg, pl, uint64(i+1), j.Run)
			if err != nil {
				b.Fatal(err)
			}
			pred, err := pevpm.Predict(prog, db, pevpm.PredictSpec{
				Procs: 32, NodeOf: pl.NodeOf, Runs: 4, Seed: uint64(i + 7),
			})
			if err != nil {
				b.Fatal(err)
			}
			got := measured.Makespan.Seconds()
			b.ReportMetric(math.Abs(pred.Mean-got)/got*100, label)
		}
		predErr(scatter, "scatter-error-%")
		predErr(block, "block-error-%")
	}
}

// BenchmarkClockSync measures the global clock synchronisation: its
// wall cost and the residual error it achieves across 16 drifting nodes
// (the measurement noise floor, in microseconds).
func BenchmarkClockSync(b *testing.B) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := mpibench.Run(cfg, mpibench.Spec{
			Op: mpibench.OpIsend, Sizes: []int{64}, Placement: pl,
			Repetitions: 10, WarmUp: 2, SyncProbes: 40, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.SyncResidual > worst {
			worst = res.SyncResidual
		}
	}
	b.ReportMetric(worst*1e6, "worst-sync-residual-us")
}

// BenchmarkShardedRun measures the sharded large-cluster engine: one
// 2048-node fat-tree windowed-ring run per iteration, executed by all
// cores. The shard-speedup metric compares a 1-worker run against an
// all-cores run of the same spec (whose outputs are byte-identical by
// the determinism contract); on a single-core machine it reports ~1.0
// by construction, so treat it as informative on multi-core runners
// only.
func BenchmarkShardedRun(b *testing.B) {
	spec := experiments.LargeRunSpec{
		Topo: "fattree:2048x32x8", Rounds: 1, Window: 2, Size: 8192, Seed: 1,
	}
	timeOne := func(workers int) float64 {
		s := spec
		s.Workers = workers
		start := time.Now()
		if _, err := experiments.LargeRun(s); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	serial := timeOne(1)
	parallel := timeOne(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed = uint64(i + 1)
		rep, err := experiments.LargeRun(s)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Makespan == 0 {
			b.Fatal("degenerate run")
		}
	}
	b.ReportMetric(serial/parallel, "shard-speedup")
}
