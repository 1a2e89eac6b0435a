package pevpm_test

import (
	"fmt"
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

// BenchmarkEvaluateWorldSize prices an evaluation as the world grows:
// the task farm (256 tasks), whose rounds move a message or two among
// all its processes, and a 20-iteration Jacobi, whose sweeps step
// nearly every process, at 64, 256 and 1024 processes against the
// golden database, every message inter-node, after one evaluation that
// builds the plan. It reports the sweep/match rounds per evaluation as
// sweeps/op.
func BenchmarkEvaluateWorldSize(b *testing.B) {
	db, err := pevpm.NewEmpiricalDB(goldenSet(), mpibench.OpSend, cluster.Perseus())
	if err != nil {
		b.Fatal(err)
	}
	jacobi, err := workloads.Jacobi{XSize: 256, Iterations: 20, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{64, 256, 1024} {
		for _, c := range []struct {
			name string
			prog *pevpm.Program
		}{
			{"taskfarm", workloads.DefaultTaskFarm().Model(procs)},
			{"jacobi", jacobi},
		} {
			opts := pevpm.Options{Procs: procs, DB: db, Seed: 1}
			b.Run(fmt.Sprintf("%s_%d", c.name, procs), func(b *testing.B) {
				// The first evaluation builds the plan and its machine.
				rep, err := pevpm.Evaluate(c.prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rep, err = pevpm.Evaluate(c.prog, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rep.Sweeps), "sweeps/op")
			})
		}
	}
}
