package pevpm_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/workloads"
)

// BenchmarkEvaluate is the PEVPM layer's unit cost: one Evaluate of each
// application the benchmark's predict workload replicates, at 64
// processes on a 64×1 placement, in the same shapes, against the fixed
// golden database. Each case evaluates one Program again and again, as
// Monte-Carlo replications do, so it reuses the Program's plan and
// machine; its …/first twin evaluates a fresh Program with the same
// Params and Body every time (no re-parse), pricing the specialisation
// and machine a first evaluation builds.
func BenchmarkEvaluate(b *testing.B) {
	cfg := cluster.Perseus()
	db, err := pevpm.NewEmpiricalDB(goldenSet(), mpibench.OpSend, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := cluster.NewPlacement(&cfg, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	jacobi, err := workloads.Jacobi{XSize: 256, Iterations: 200, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
	if err != nil {
		b.Fatal(err)
	}
	fft := workloads.FFT{PointsPerProc: 1024, BytesPerPoint: 8, StageSeconds: 120e-9, Rounds: 10}
	for _, c := range []struct {
		name string
		prog *pevpm.Program
	}{
		{"jacobi_64", jacobi},
		{"fft_64", fft.Model(64)},
		{"taskfarm_64", workloads.DefaultTaskFarm().Model(64)},
	} {
		opts := pevpm.Options{Procs: 64, DB: db, Seed: 1, NodeOf: pl.NodeOf}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pevpm.Evaluate(c.prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/first", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog := &pevpm.Program{Params: c.prog.Params, Body: c.prog.Body}
				if _, err := pevpm.Evaluate(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
