package pevpm

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/stats"
)

func pingPongProg(iters int) *Program {
	prog := NewProgram()
	prog.Params["iters"] = float64(iters)
	prog.Body = Block{&Loop{Count: Var("iters"), Body: Block{
		&Runon{
			Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
			Bodies: []Block{
				{&Msg{Kind: MsgSend, Size: Num(1024), From: Num(0), To: Num(1)}},
				{&Msg{Kind: MsgRecv, Size: Num(1024), From: Num(0), To: Num(1)}},
			},
		},
		&Serial{Time: Num(100e-6)},
	}}}
	return prog
}

// replicate runs EvaluateN's replications of prog (the same derived
// seeds) as concurrent Evaluate calls on a worker pool sharing opts.DB,
// and returns their reports in replication order.
func replicate(t *testing.T, prog *Program, opts Options, n, workers int) []*Report {
	t.Helper()
	reps, err := sweep.Map(workers, n, nil, func(i int) (*Report, metrics.Snapshot, error) {
		o := opts
		o.Seed = opts.Seed + uint64(i)*7919
		rep, err := Evaluate(prog, o)
		return rep, metrics.Snapshot{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestEvaluateNWorkersEquality checks the Monte-Carlo replications give
// the exact same summary — bit-identical mean, spread and extremes —
// whether EvaluateN runs them in order or a worker pool runs them
// concurrently on one frozen empirical database (the service's shared
// pool does), since each replication derives its own seed and the
// makespans fold into the summary in replication order. Run with -race
// to prove Evaluate only reads the database.
func TestEvaluateNWorkersEquality(t *testing.T) {
	db, err := NewEmpiricalDB(fakeSet(t), mpibench.OpIsend, cluster.Perseus())
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram()
	prog.Body = Block{&Loop{Count: Num(20), Body: Block{
		&Runon{
			Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
			Bodies: []Block{
				{&Msg{Kind: MsgSend, Size: Num(500), From: Num(0), To: Num(1)}},
				{&Msg{Kind: MsgRecv, Size: Num(500), From: Num(0), To: Num(1)}},
			},
		},
	}}}
	opts := Options{Procs: 2, DB: db, Seed: 123}

	want, err := EvaluateN(prog, opts, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		var got stats.Summary
		for _, rep := range replicate(t, prog, opts, 12, workers) {
			got.Add(rep.Makespan)
		}
		if got != want {
			t.Errorf("workers=%d: summary %+v, serial %+v", workers, got, want)
		}
	}
}

// TestEvaluateSharedDBConcurrency drives many Evaluate calls through
// one shared (frozen) empirical database at once — the access pattern
// parallel figure sweeps produce — and checks each call still matches
// its serial twin. Run with -race to prove the DB is read-only.
func TestEvaluateSharedDBConcurrency(t *testing.T) {
	db := LogGPStyleDB(200e-6, 5e6, 16384)
	prog := pingPongProg(20)

	const calls = 16
	want := make([]float64, calls)
	for i := range want {
		rep, err := Evaluate(prog, Options{Procs: 2, DB: db, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Makespan
	}

	got := make([]float64, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Evaluate(prog, Options{Procs: 2, DB: db, Seed: uint64(i + 1)})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			got[i] = rep.Makespan
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d: concurrent makespan %g, serial %g", i, got[i], want[i])
		}
	}
}
