package workloads

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
)

func TestSummaExecutes(t *testing.T) {
	cfg := cluster.Perseus()
	s := Summa{PanelBytes: 4096, ReduceBytes: 64, Iterations: 20, FlopsSeconds: 1e-3}
	for _, n := range []int{2, 4, 8} {
		res, err := Execute(cfg, placement(t, &cfg, n, 1), uint64(n), s.Run)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Makespan.Seconds() < 20*1e-3 {
			t.Errorf("n=%d: makespan %v below compute floor", n, res.Makespan)
		}
	}
}

func TestSummaPVMShowsCollectives(t *testing.T) {
	s := DefaultSumma()
	text := s.PVM()
	for _, want := range []string{"Collective type = MPI_Bcast", "Collective type = MPI_Allreduce"} {
		if !strings.Contains(text, want) {
			t.Errorf("PVM missing %q:\n%s", want, text)
		}
	}
	if _, err := pevpm.Parse(text); err != nil {
		t.Errorf("PVM text does not parse: %v", err)
	}
}

// TestSummaClosedLoop validates the Collective directive extension end
// to end: benchmark Bcast and Allreduce with MPIBench, build a
// collective-capable database, and predict an application built from
// those collectives against its actual execution.
func TestSummaClosedLoop(t *testing.T) {
	cfg := cluster.Perseus()
	s := Summa{PanelBytes: 4096, ReduceBytes: 64, Iterations: 40, FlopsSeconds: 2e-3}

	var pls []cluster.Placement
	for _, n := range []int{4, 8, 16} {
		pls = append(pls, placement(t, &cfg, n, 1))
	}
	spec := mpibench.Spec{
		Sizes:       []int{64, 1024, 4096},
		Repetitions: 100,
		WarmUp:      10,
		SyncProbes:  20,
		Seed:        91,
	}
	set := &mpibench.Set{Cluster: cfg.Name}
	for _, op := range []mpibench.Op{mpibench.OpBcast, mpibench.OpAllreduce} {
		sp := spec
		sp.Op = op
		part, err := mpibench.RunSweep(cfg, sp, pls)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range part.Results {
			set.Add(r)
		}
	}
	db, err := pevpm.NewCollectiveDB(
		pevpm.LogGPStyleDB(200e-6, 10e6, 16384), // p2p base unused by this model
		set,
	)
	if err != nil {
		t.Fatal(err)
	}

	for _, pl := range pls {
		measured, err := Execute(cfg, pl, uint64(300+pl.NodeCount), s.Run)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := pevpm.Predict(s.Model(), db, pevpm.PredictSpec{
			Procs: pl.NumProcs(), NodeOf: pl.NodeOf, Runs: 5, Seed: uint64(400 + pl.NodeCount),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := measured.Makespan.Seconds()
		rel := math.Abs(pred.Mean-got) / got
		t.Logf("summa %v: measured %.4fs predicted %.4fs (%.1f%% error)", pl, got, pred.Mean, rel*100)
		if rel > 0.15 {
			t.Errorf("summa %v: prediction error %.1f%% exceeds 15%%", pl, rel*100)
		}
	}
}
