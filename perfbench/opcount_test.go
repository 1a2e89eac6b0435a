package main

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/workloads"
)

// TestMessageFormulasMatchExecutionAndModel checks each application's
// fixed message count against a real execution and a PEVPM evaluation.
func TestMessageFormulasMatchExecutionAndModel(t *testing.T) {
	cfg := cluster.Perseus()
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: predDBSizes, Repetitions: 10, WarmUp: 2, SyncProbes: 4, Seed: 1,
	}, []cluster.Placement{mustPlacement(t, &cfg, 4)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jac := workloads.Jacobi{XSize: 256, Iterations: 7, SweepSeconds: cluster.JacobiSweepSeconds}
	fft := workloads.FFT{PointsPerProc: 64, BytesPerPoint: 8, StageSeconds: 1e-7, Rounds: 3}
	farm := workloads.TaskFarm{Tasks: 11, TaskSeconds: 1e-3, TaskBytes: 512, ResultBytes: 2048}
	for _, procs := range []int{2, 5, 8} {
		jacModel, err := jac.Model()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			app   string
			want  uint64
			run   func(*mpi.Comm)
			model *pevpm.Program
		}{
			{"jacobi", jacobiMessages(jac.Iterations, procs), jac.Run, jacModel},
			{"fft", fftMessages(fft.Rounds, procs), fft.Run, fft.Model(procs)},
			{"taskfarm", taskFarmMessages(farm.Tasks, procs), farm.Run, farm.Model(procs)},
		} {
			pl := mustPlacement(t, &cfg, procs)
			res, err := workloads.Execute(cfg, pl, 1, tc.run)
			if err != nil {
				t.Fatal(err)
			}
			var c counts
			c.addSnapshot(res.Metrics)
			if c.messages() != tc.want {
				t.Errorf("%s at %d procs: executed %d messages, formula says %d", tc.app, procs, c.messages(), tc.want)
			}
			rep, err := pevpm.Evaluate(tc.model, pevpm.Options{Procs: procs, DB: db, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.MessagesSent != tc.want {
				t.Errorf("%s at %d procs: model sent %d messages, formula says %d", tc.app, procs, rep.MessagesSent, tc.want)
			}
		}
	}
}

func mustPlacement(t *testing.T, cfg *cluster.Config, procs int) cluster.Placement {
	t.Helper()
	pl, err := cluster.NewPlacement(cfg, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestSampleCountAndCellCheck runs one small characterize cell: the
// expected sample count matches what mpibench records, and checkCell
// refuses a result with a size missing or a count short.
func TestSampleCountAndCellCheck(t *testing.T) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewBlockPlacement(&cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1024, 32768}
	res, err := mpibench.Run(cfg, mpibench.Spec{Op: mpibench.OpIsend, Sizes: sizes, Placement: pl,
		Repetitions: 6, WarmUp: 2, SyncProbes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := expectedSamples(pl, 6)
	if err := checkCell(res, sizes, want); err != nil {
		t.Fatalf("a healthy cell failed its check: %v", err)
	}
	if got := recordedSamples(res); got != want*uint64(len(sizes)) {
		t.Errorf("recorded %d samples, want %d", got, want*uint64(len(sizes)))
	}
	if err := checkCell(res, []int{0, 1024, 32768, 65536}, want); err == nil {
		t.Error("checkCell accepted a result with a size missing")
	}
	if err := checkCell(res, sizes, want+1); err == nil {
		t.Error("checkCell accepted a result with too few samples")
	}
}

// TestDeliveryCountMatchesPatternRun runs a small pattern and checks the
// expected deliveries against the run's transcript and counters.
func TestDeliveryCountMatchesPatternRun(t *testing.T) {
	spec := experiments.PatternRunSpec{Topo: "fattree:256x16x4", Pattern: mpibench.PatternDense, P: 16, G: 4, K: 2,
		Direction: mpibench.Omnidirectional, Rounds: 3, Window: 2, Size: 4096, Seed: 5, Workers: 2}
	data, acks, err := expectedDeliveries(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 12 ordered group pairs × 2×2 rank pairs, 2 messages a window, 3 rounds.
	if data != 12*4*2*3 || acks != 12*4*3 {
		t.Fatalf("expected %d data and %d acks, want %d and %d", data, acks, 12*4*2*3, 12*4*3)
	}
	rep, err := experiments.PatternRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := checkPattern(spec, rep)
	if err != nil || n != data+acks {
		t.Fatalf("checkPattern = %d, %v; want %d deliveries", n, err, data+acks)
	}
	short := spec
	short.Rounds = 4 // the report is for 3 rounds
	if _, err := checkPattern(short, rep); err == nil {
		t.Error("checkPattern accepted a report with a round missing")
	}
	rep.Transcript = strings.Replace(rep.Transcript, "data=", "data=1", 1)
	if _, err := checkPattern(spec, rep); err == nil {
		t.Error("checkPattern accepted a transcript with a wrong delivery count")
	}
}

func TestBracketsCountsQuantileInversions(t *testing.T) {
	grid := []int{2, 4, 8, 16}
	for v, want := range map[int]uint64{1: 1, 2: 1, 3: 2, 4: 1, 12: 2, 16: 1, 40: 1} {
		if got := brackets(grid, v); got != want {
			t.Errorf("brackets(%d) = %d, want %d", v, got, want)
		}
	}
}
