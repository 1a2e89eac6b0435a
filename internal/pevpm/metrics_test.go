package pevpm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestReportMetricsCountDraws checks that an evaluation's snapshot
// records one inter-node draw per message and mirrors the sweep and
// message totals.
func TestReportMetricsCountDraws(t *testing.T) {
	db := constDB(100e-6, 0, 5e-6, 1<<20)
	rep := mustEval(t, sendRecvProgram(1024), Options{Procs: 2, DB: db})

	get := func(name string, labels ...metrics.Label) uint64 {
		v, _ := rep.Metrics.Counter("pevpm", name, labels...)
		return v
	}
	if get("draws_total", metrics.L("dist", "inter")) != 1 {
		t.Errorf("inter draws = %d, want 1", get("draws_total", metrics.L("dist", "inter")))
	}
	if get("draws_total", metrics.L("dist", "intra")) != 0 {
		t.Errorf("intra draws = %d, want 0 (NodeOf unset)", get("draws_total", metrics.L("dist", "intra")))
	}
	if get("messages_sent_total") != rep.MessagesSent {
		t.Errorf("messages_sent_total = %d, want %d", get("messages_sent_total"), rep.MessagesSent)
	}
	if get("sweeps_total") != uint64(rep.Sweeps) {
		t.Errorf("sweeps_total = %d, want %d", get("sweeps_total"), rep.Sweeps)
	}
	if get("replications_total") != 1 {
		t.Errorf("replications_total = %d, want 1", get("replications_total"))
	}
}

// TestIntraDrawClassification routes the message onto one node and
// checks it samples the intra-node distribution.
func TestIntraDrawClassification(t *testing.T) {
	db := constDB(100e-6, 0, 5e-6, 1<<20)
	rep := mustEval(t, sendRecvProgram(64), Options{
		Procs: 2, DB: db,
		NodeOf: func(proc int) int { return 0 }, // both procs on node 0
	})
	if v, _ := rep.Metrics.Counter("pevpm", "draws_total", metrics.L("dist", "intra")); v != 1 {
		t.Errorf("intra draws = %d, want 1", v)
	}
	if v, _ := rep.Metrics.Counter("pevpm", "draws_total", metrics.L("dist", "inter")); v != 0 {
		t.Errorf("inter draws = %d, want 0", v)
	}
}

// TestPredictMetricsFoldReplications checks a prediction's metrics are
// its replications' snapshots folded in replication order, at any
// worker count, and leave out the detail evaluation: the same contract
// the makespan summary satisfies.
func TestPredictMetricsFoldReplications(t *testing.T) {
	db := constDB(100e-6, 1e-9, 5e-6, 512)
	prog := sendRecvProgram(4096) // rendezvous path: sender parks too
	const n = 8

	want := metrics.NewAggregate()
	for i := 0; i < n; i++ {
		rep := mustEval(t, prog, Options{Procs: 2, DB: db, Seed: sim.SubSeed(42, fmt.Sprintf("service:rep%d", i))})
		want.Merge(rep.Metrics)
	}
	for _, workers := range []int{1, 4} {
		pred, err := Predict(prog, db, PredictSpec{Procs: 2, Runs: n, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pred.Metrics, want.Snapshot()) {
			t.Errorf("workers=%d: metrics differ from the replications' fold:\n%+v\nvs\n%+v",
				workers, pred.Metrics, want.Snapshot())
		}
		if v, _ := pred.Metrics.Counter("pevpm", "replications_total"); v != n {
			t.Errorf("workers=%d: replications_total = %d, want %d", workers, v, n)
		}
	}
}
