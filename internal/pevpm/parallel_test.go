package pevpm

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
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

// TestPredictWorkersEquality checks a prediction is the same value —
// every field, the folded metrics included — whether its replications
// run in order or on a worker pool sharing one frozen empirical
// database (the service's slots do), since each replication derives its
// own substream and the fold walks replication order. Run with -race to
// prove Evaluate only reads the database.
func TestPredictWorkersEquality(t *testing.T) {
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
	predict := func(workers int) *Prediction {
		pred, err := Predict(prog, db, PredictSpec{Procs: 2, Runs: 12, Seed: 123, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	want := predict(1)
	for _, workers := range []int{2, 8} {
		if got := predict(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: %+v, serial %+v", workers, got, want)
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
