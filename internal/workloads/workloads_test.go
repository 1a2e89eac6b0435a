package workloads

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
)

func placement(t *testing.T, cfg *cluster.Config, n, p int) cluster.Placement {
	t.Helper()
	pl, err := cluster.NewPlacement(cfg, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestJacobiExecutes(t *testing.T) {
	cfg := cluster.Perseus()
	j := Jacobi{XSize: 256, Iterations: 20, SweepSeconds: 0.1}
	for _, n := range []int{2, 4, 8} {
		res, err := Execute(cfg, placement(t, &cfg, n, 1), 1, j.Run)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Compute floor: iterations × sweep/numprocs.
		floor := 20 * 0.1 / float64(n)
		got := res.Makespan.Seconds()
		if got < floor {
			t.Errorf("n=%d: makespan %v below compute floor %v", n, got, floor)
		}
		if got > floor*1.5 {
			t.Errorf("n=%d: makespan %v too far above floor %v", n, got, floor)
		}
	}
}

func TestJacobiSpeedupGrows(t *testing.T) {
	cfg := cluster.Perseus()
	j := Jacobi{XSize: 256, Iterations: 20, SweepSeconds: 0.2}
	t2, err := Execute(cfg, placement(t, &cfg, 2, 1), 1, j.Run)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := Execute(cfg, placement(t, &cfg, 16, 1), 1, j.Run)
	if err != nil {
		t.Fatal(err)
	}
	s2 := j.SerialTime() / t2.Makespan.Seconds() * 0.2 / j.SweepSeconds // normalise sweep
	_ = s2
	if t16.Makespan >= t2.Makespan {
		t.Errorf("16 nodes (%v) not faster than 2 (%v)", t16.Makespan, t2.Makespan)
	}
}

func TestJacobiModelParses(t *testing.T) {
	j := DefaultJacobi()
	prog, err := j.Model()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Params["xsize"] != 256 || prog.Params["iterations"] != float64(cluster.JacobiIterations) {
		t.Errorf("params = %v", prog.Params)
	}
	if prog.Params["sweep"] != cluster.JacobiSweepSeconds {
		t.Errorf("sweep param = %v", prog.Params["sweep"])
	}
}

// TestJacobiClosedLoop is the core validation of the whole reproduction:
// PEVPM predictions fed by MPIBench distributions must match actual
// executions of the Jacobi program on the simulated cluster.
func TestJacobiClosedLoop(t *testing.T) {
	cfg := cluster.Perseus()
	j := Jacobi{XSize: 256, Iterations: 60, SweepSeconds: cluster.JacobiSweepSeconds}

	var pls []cluster.Placement
	for _, n := range []int{2, 4, 8, 16} {
		pls = append(pls, placement(t, &cfg, n, 1))
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{0, 256, 1024, 4096},
		Repetitions: 120,
		WarmUp:      10,
		SyncProbes:  20,
		Seed:        5,
	}, pls)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := j.Model()
	if err != nil {
		t.Fatal(err)
	}

	for _, pl := range pls {
		measured, err := Execute(cfg, pl, 42, j.Run)
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		pred, err := pevpm.Predict(prog, db, pevpm.PredictSpec{Procs: pl.NumProcs(), Runs: 5, Seed: 42})
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		got := measured.Makespan.Seconds()
		rel := math.Abs(pred.Mean-got) / got
		t.Logf("%v: measured %.4fs predicted %.4fs (%.2f%% error)",
			pl, got, pred.Mean, rel*100)
		if rel > 0.08 {
			t.Errorf("%v: prediction error %.1f%% exceeds 8%%", pl, rel*100)
		}
	}
}

func TestFFTExecutesAndModelAgrees(t *testing.T) {
	cfg := cluster.Perseus()
	f := FFT{PointsPerProc: 2048, BytesPerPoint: 8, StageSeconds: 100e-9, Rounds: 5}
	pl := placement(t, &cfg, 8, 1)

	res, err := Execute(cfg, pl, 3, f.Run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("FFT did not run")
	}

	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{1024, 16384, 32768},
		Repetitions: 80,
		WarmUp:      10,
		SyncProbes:  20,
		Seed:        6,
	}, []cluster.Placement{placement(t, &cfg, 2, 1), placement(t, &cfg, 8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pevpm.Predict(f.Model(8), db, pevpm.PredictSpec{Procs: 8, Runs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Makespan.Seconds()
	rel := math.Abs(pred.Mean-got) / got
	t.Logf("fft 8x1: measured %.4fs predicted %.4fs (%.1f%% error)", got, pred.Mean, rel*100)
	if rel > 0.30 {
		t.Errorf("FFT prediction error %.1f%% exceeds 30%%", rel*100)
	}
}

func TestTaskFarmExecutes(t *testing.T) {
	cfg := cluster.Perseus()
	tf := TaskFarm{Tasks: 40, TaskSeconds: 5e-3, TaskBytes: 256, ResultBytes: 1024}
	for _, n := range []int{2, 5, 9} {
		res, err := Execute(cfg, placement(t, &cfg, n, 1), 7, tf.Run)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Work conservation: total compute = 40 tasks × 5 ms over n-1 workers.
		floor := 40 * 5e-3 / float64(n-1)
		if got := res.Makespan.Seconds(); got < floor {
			t.Errorf("n=%d: makespan %v below work floor %v", n, got, floor)
		}
	}
}

func TestTaskFarmFewerTasksThanWorkers(t *testing.T) {
	cfg := cluster.Perseus()
	tf := TaskFarm{Tasks: 3, TaskSeconds: 1e-3, TaskBytes: 64, ResultBytes: 64}
	res, err := Execute(cfg, placement(t, &cfg, 8, 1), 1, tf.Run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("farm with idle workers did not finish")
	}
}

func TestTaskFarmClosedLoop(t *testing.T) {
	cfg := cluster.Perseus()
	tf := TaskFarm{Tasks: 48, TaskSeconds: 10e-3, TaskBytes: 512, ResultBytes: 2048}
	pl := placement(t, &cfg, 7, 1)

	measured, err := Execute(cfg, pl, 11, tf.Run)
	if err != nil {
		t.Fatal(err)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{0, 512, 2048},
		Repetitions: 80,
		WarmUp:      10,
		SyncProbes:  20,
		Seed:        12,
	}, []cluster.Placement{placement(t, &cfg, 2, 1), placement(t, &cfg, 8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pevpm.Predict(tf.Model(7), db, pevpm.PredictSpec{Procs: 7, Runs: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	got := measured.Makespan.Seconds()
	rel := math.Abs(pred.Mean-got) / got
	t.Logf("taskfarm 7x1: measured %.4fs predicted %.4fs (%.1f%% error)", got, pred.Mean, rel*100)
	if rel > 0.15 {
		t.Errorf("task farm prediction error %.1f%% exceeds 15%%", rel*100)
	}
}

func TestTaskFarmModelMatchesStructure(t *testing.T) {
	tf := TaskFarm{Tasks: 10, TaskSeconds: 1e-3, TaskBytes: 64, ResultBytes: 128}
	prog := tf.Model(4)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Evaluate with a constant DB: no deadlock, sensible makespan.
	db := pevpm.LogGPStyleDB(100e-6, 10e6, 16384)
	rep, err := pevpm.Evaluate(prog, pevpm.Options{Procs: 4, DB: db, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 10 tasks over 3 workers: at least ceil(10/3)=4 task times long.
	if rep.Makespan < 4e-3 {
		t.Errorf("farm model makespan %v too small", rep.Makespan)
	}
	if rep.MessagesSent == 0 {
		t.Error("farm model sent no messages")
	}
}

func TestExecuteReportsDeadlock(t *testing.T) {
	cfg := cluster.Perseus()
	pl := placement(t, &cfg, 2, 1)
	_, err := Execute(cfg, pl, 1, func(c *mpi.Comm) {
		c.Recv(1-c.Rank(), 99) // mutual receive: deadlock
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}
