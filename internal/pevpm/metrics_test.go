package pevpm

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
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

// TestEvaluateNWorkersMetricsDeterministic folds replication metrics in
// EvaluateN and, from the same replications run on 4 workers, in
// replication order, and requires identical snapshots — the same
// contract the makespan summary satisfies.
func TestEvaluateNWorkersMetricsDeterministic(t *testing.T) {
	db := constDB(100e-6, 1e-9, 5e-6, 512)
	prog := sendRecvProgram(4096) // rendezvous path: sender parks too
	const n = 8

	serial := metrics.NewAggregate()
	if _, err := EvaluateN(prog, Options{Procs: 2, DB: db, Seed: 42, Metrics: serial}, n); err != nil {
		t.Fatal(err)
	}
	parallel := metrics.NewAggregate()
	for _, rep := range replicate(t, prog, Options{Procs: 2, DB: db, Seed: 42}, n, 4) {
		parallel.Merge(rep.Metrics)
	}
	if !reflect.DeepEqual(serial.Snapshot(), parallel.Snapshot()) {
		t.Errorf("aggregated metrics differ between EvaluateN and 4 workers:\n%+v\nvs\n%+v",
			serial.Snapshot(), parallel.Snapshot())
	}
	if v, _ := serial.Snapshot().Counter("pevpm", "replications_total"); v != n {
		t.Errorf("replications_total = %d, want %d", v, n)
	}
}
