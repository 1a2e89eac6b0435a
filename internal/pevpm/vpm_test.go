package pevpm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// constDB is a deterministic database for exact timing arithmetic:
// one-way time = base + perByte·size + perMsg·contention.
func constDB(base, perByte, perMsg float64, eager int) *AnalyticDB {
	return &AnalyticDB{
		OneWayFor: func(size, contention int) stats.Dist {
			return stats.Constant(base + perByte*float64(size) + perMsg*float64(contention))
		},
		SendCost: func(size int) float64 { return 10e-6 },
		RecvCost: func(size int) float64 { return 10e-6 },
		Eager:    eager,
	}
}

func mustEval(t *testing.T, prog *Program, opts Options) *Report {
	t.Helper()
	rep, err := Evaluate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSerialOnly(t *testing.T) {
	prog := NewProgram()
	prog.Body = Block{&Serial{Time: Num(2.5)}}
	rep := mustEval(t, prog, Options{Procs: 4, DB: constDB(1e-4, 0, 0, 1<<20)})
	if rep.Makespan != 2.5 {
		t.Errorf("makespan = %v", rep.Makespan)
	}
	for i, bt := range rep.Breakdowns {
		if bt.Compute != 2.5 {
			t.Errorf("proc %d compute = %v", i, bt.Compute)
		}
	}
}

func TestLoopMultiplies(t *testing.T) {
	prog := NewProgram()
	prog.Params["iters"] = 10
	prog.Body = Block{&Loop{Count: Var("iters"), Body: Block{&Serial{Time: Num(0.1)}}}}
	rep := mustEval(t, prog, Options{Procs: 1, DB: constDB(1e-4, 0, 0, 1<<20)})
	if math.Abs(rep.Makespan-1.0) > 1e-12 {
		t.Errorf("makespan = %v", rep.Makespan)
	}
}

func TestRunonSelectsBranch(t *testing.T) {
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds:  []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
		Bodies: []Block{{&Serial{Time: Num(1)}}, {&Serial{Time: Num(2)}}},
	}}
	rep := mustEval(t, prog, Options{Procs: 3, DB: constDB(1e-4, 0, 0, 1<<20)})
	if rep.ProcTimes[0] != 1 || rep.ProcTimes[1] != 2 || rep.ProcTimes[2] != 0 {
		t.Errorf("proc times = %v", rep.ProcTimes)
	}
}

func sendRecvProgram(size int) *Program {
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
		Bodies: []Block{
			{&Msg{Kind: MsgSend, Size: Num(float64(size)), From: Num(0), To: Num(1)}},
			{&Msg{Kind: MsgRecv, Size: Num(float64(size)), From: Num(0), To: Num(1)}},
		},
	}}
	return prog
}

func TestEagerSendRecvTiming(t *testing.T) {
	// One-way time = 100µs + contention(1)·5µs = 105µs. Receiver posted
	// at t=0, message departs at sendBusy(10µs): completion = 10+105 = 115µs.
	db := constDB(100e-6, 0, 5e-6, 1<<20)
	rep := mustEval(t, sendRecvProgram(1024), Options{Procs: 2, DB: db})
	if math.Abs(rep.ProcTimes[0]-10e-6) > 1e-12 {
		t.Errorf("eager sender time = %v, want 10µs", rep.ProcTimes[0])
	}
	if math.Abs(rep.ProcTimes[1]-115e-6) > 1e-12 {
		t.Errorf("receiver time = %v, want 115µs", rep.ProcTimes[1])
	}
	if rep.MessagesSent != 1 {
		t.Errorf("messages = %d", rep.MessagesSent)
	}
	if w := rep.Breakdowns[1].RecvWait; math.Abs(w-115e-6) > 1e-12 {
		t.Errorf("recv wait = %v", w)
	}
}

func TestRendezvousSenderBlocks(t *testing.T) {
	// Above the eager limit the sender must block until arrival.
	db := constDB(1e-3, 0, 0, 1024)
	rep := mustEval(t, sendRecvProgram(65536), Options{Procs: 2, DB: db})
	// Sender: 10µs busy + blocked until depart+1ms.
	want := 10e-6 + 1e-3
	if math.Abs(rep.ProcTimes[0]-want) > 1e-12 {
		t.Errorf("rendezvous sender time = %v, want %v", rep.ProcTimes[0], want)
	}
}

func TestLateReceiverPaysOnlyPickup(t *testing.T) {
	// The receiver computes for 1s first; the message arrived long ago,
	// so the receive completes at 1s + recvBusy.
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
		Bodies: []Block{
			{&Msg{Kind: MsgSend, Size: Num(64), From: Num(0), To: Num(1)}},
			{
				&Serial{Time: Num(1)},
				&Msg{Kind: MsgRecv, Size: Num(64), From: Num(0), To: Num(1)},
			},
		},
	}}
	db := constDB(100e-6, 0, 0, 1<<20)
	rep := mustEval(t, prog, Options{Procs: 2, DB: db})
	want := 1.0 + 10e-6 // compute + pickup
	if math.Abs(rep.ProcTimes[1]-want) > 1e-9 {
		t.Errorf("late receiver time = %v, want %v", rep.ProcTimes[1], want)
	}
}

func TestPipelineOfMessages(t *testing.T) {
	// 0 -> 1 -> 2 relay: completion times must chain.
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1"), MustExpr("procnum == 2")},
		Bodies: []Block{
			{&Msg{Kind: MsgSend, Size: Num(0), From: Num(0), To: Num(1)}},
			{
				&Msg{Kind: MsgRecv, Size: Num(0), From: Num(0), To: Num(1)},
				&Msg{Kind: MsgSend, Size: Num(0), From: Num(1), To: Num(2)},
			},
			{&Msg{Kind: MsgRecv, Size: Num(0), From: Num(1), To: Num(2)}},
		},
	}}
	db := constDB(100e-6, 0, 0, 1<<20)
	rep := mustEval(t, prog, Options{Procs: 3, DB: db})
	// proc1: recv at 10µs(depart)+100µs = 110µs, then send busy 10µs = 120µs.
	// proc2: message departs at 120µs, arrives 220µs.
	if math.Abs(rep.ProcTimes[2]-220e-6) > 1e-12 {
		t.Errorf("relay end = %v, want 220µs", rep.ProcTimes[2])
	}
}

func TestDeadlockDetected(t *testing.T) {
	prog := NewProgram()
	prog.Body = Block{
		// Everyone receives from the left neighbour; nobody sends.
		&Msg{Kind: MsgRecv, Size: Num(4),
			From: MustExpr("(procnum+numprocs-1) % numprocs"), To: Var("procnum")},
	}
	_, err := Evaluate(prog, Options{Procs: 3, DB: constDB(1e-4, 0, 0, 1<<20)})
	if !errors.Is(err, ErrModelDeadlock) {
		t.Fatalf("err = %v, want model deadlock", err)
	}
}

func TestContentionRaisesSampledTimes(t *testing.T) {
	// All procs send to proc 0 simultaneously; contention = numprocs-1
	// messages on the scoreboard, so per-message time grows with procs.
	build := func() *Program {
		prog := NewProgram()
		prog.Body = Block{&Runon{
			Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum != 0")},
			Bodies: []Block{
				{&Loop{Count: MustExpr("numprocs-1"), Body: Block{
					&Msg{Kind: MsgRecv, Size: Num(1024), From: MustExpr("-1+1"), To: Num(0)},
				}}},
				{&Msg{Kind: MsgSend, Size: Num(1024), From: Var("procnum"), To: Num(0)}},
			},
		}}
		return prog
	}
	_ = build
	// The model above would need wildcard receives; instead use pairwise
	// exchanges at two scales and compare makespans.
	pairwise := func(procs int) float64 {
		prog := NewProgram()
		prog.Body = Block{&Runon{
			Conds: []Expr{MustExpr("procnum < numprocs/2"), MustExpr("procnum >= numprocs/2")},
			Bodies: []Block{
				{&Msg{Kind: MsgSend, Size: Num(1024), From: Var("procnum"),
					To: MustExpr("procnum + numprocs/2")}},
				{&Msg{Kind: MsgRecv, Size: Num(1024),
					From: MustExpr("procnum - numprocs/2"), To: Var("procnum")}},
			},
		}}
		db := constDB(100e-6, 0, 10e-6, 1<<20) // +10µs per scoreboard message
		rep := mustEval(t, prog, Options{Procs: procs, DB: db})
		return rep.Makespan
	}
	small, big := pairwise(2), pairwise(64)
	// 2 procs: contention 1 → 110µs + sendBusy. 64 procs: contention 32 → 420µs.
	if big <= small+200e-6 {
		t.Errorf("contention did not raise times: %v vs %v", small, big)
	}
}

func TestHotSpotsIdentifyWait(t *testing.T) {
	prog := NewProgram()
	recv := &Msg{Kind: MsgRecv, Size: Num(8), From: Num(0), To: Num(1)}
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
		Bodies: []Block{
			{&Serial{Time: Num(2)}, &Msg{Kind: MsgSend, Size: Num(8), From: Num(0), To: Num(1)}},
			{recv},
		},
	}}
	rep := mustEval(t, prog, Options{Procs: 2, DB: constDB(1e-4, 0, 0, 1<<20)})
	hot := rep.HotSpots()
	if len(hot) == 0 {
		t.Fatal("no hot spots reported")
	}
	if hot[0].Wait < 2.0 {
		t.Errorf("top hot spot wait = %v, want >= 2s of blocked time", hot[0].Wait)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	prog, err := Parse(figure5)
	if err != nil {
		t.Fatal(err)
	}
	prog.Params["iterations"] = 5
	db := LogGPStyleDB(100e-6, 10e6, 16384)
	opts := Options{Procs: 8, DB: db, Seed: 11}
	a := mustEval(t, prog, opts)
	b := mustEval(t, prog, opts)
	if a.Makespan != b.Makespan {
		t.Error("same seed, different makespans")
	}
	opts.Seed = 12
	c := mustEval(t, prog, opts)
	if a.Makespan == c.Makespan {
		t.Error("different seeds gave identical makespans (distribution not sampled?)")
	}
}

func TestPredict(t *testing.T) {
	prog, err := Parse(figure5)
	if err != nil {
		t.Fatal(err)
	}
	prog.Params["iterations"] = 3
	db := LogGPStyleDB(100e-6, 10e6, 16384)
	pred, err := Predict(prog, db, PredictSpec{Procs: 4, Runs: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Runs != 20 || pred.Mean <= 0 || pred.MeanCI.N != 20 || pred.QuantileCI.N != 20 {
		t.Errorf("prediction = %+v", pred)
	}
	if pred.Std == 0 {
		t.Error("Monte-Carlo runs show zero variance")
	}
	if pred.Quantile != 0.5 || pred.QuantileCI.Point < pred.Min || pred.QuantileCI.Point > pred.Max {
		t.Errorf("median interval %+v outside [%v, %v]", pred.QuantileCI, pred.Min, pred.Max)
	}
	if pred.Breakdown.Compute <= 0 || pred.Messages == 0 || len(pred.HotSpots) == 0 || len(pred.HotSpots) > 5 {
		t.Errorf("detail attribution = %+v, %d messages, %d hot spots",
			pred.Breakdown, pred.Messages, len(pred.HotSpots))
	}
}

// TestPredictRefusesBadSpecs checks Predict refuses what no prediction
// can use before it evaluates anything.
func TestPredictRefusesBadSpecs(t *testing.T) {
	prog := pingPongProg(2)
	db := LogGPStyleDB(100e-6, 10e6, 16384)
	for _, c := range []struct {
		spec PredictSpec
		want string
	}{
		{PredictSpec{Procs: 2, Runs: 0}, "pevpm: runs: 0 (need at least 1)"},
		{PredictSpec{Procs: 2, Runs: -1}, "pevpm: runs: -1 (need at least 1)"},
		{PredictSpec{Procs: 2, Runs: 1, Mode: "median"},
			`pevpm: mode: "median" (want dist, avg-nxp, avg-2x1 or min-2x1)`},
	} {
		c.spec.Evaluate = func(*Program, Options) (*Report, error) {
			t.Fatalf("%+v: evaluated", c.spec)
			return nil, nil
		}
		if _, err := Predict(prog, db, c.spec); err == nil || err.Error() != c.want {
			t.Errorf("%+v: error %v, want %q", c.spec, err, c.want)
		}
	}
}

// TestPredictModes checks each mode's database: the point-value modes
// draw nothing at random, so their replications agree, and min-2x1
// undercuts the distributions.
func TestPredictModes(t *testing.T) {
	prog := pingPongProg(20)
	db := LogGPStyleDB(100e-6, 10e6, 16384)
	means := map[string]float64{}
	for _, mode := range Modes {
		pred, err := Predict(prog, db, PredictSpec{Procs: 2, Mode: mode, Runs: 4, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode != "dist" && pred.Min != pred.Max {
			t.Errorf("%s: replications range over [%v, %v]", mode, pred.Min, pred.Max)
		}
		means[mode] = pred.Mean
	}
	if !(means["min-2x1"] < means["dist"]) {
		t.Errorf("min-2x1 mean %v not below dist %v", means["min-2x1"], means["dist"])
	}
}

func TestFigure5JacobiStructureSane(t *testing.T) {
	// The full Jacobi model must evaluate without deadlock for odd and
	// even process counts, and compute time must dominate for small P.
	prog, err := Parse(figure5)
	if err != nil {
		t.Fatal(err)
	}
	prog.Params["iterations"] = 10
	db := LogGPStyleDB(100e-6, 10e6, 16384)
	for _, procs := range []int{2, 3, 5, 8} {
		rep, err := Evaluate(prog, Options{Procs: procs, DB: db, Seed: 1})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		// 10 iterations of 3.24/numprocs seconds of compute.
		wantCompute := 10 * 3.24 / float64(procs)
		if math.Abs(rep.Breakdowns[0].Compute-wantCompute)/wantCompute > 1e-9 {
			t.Errorf("procs=%d compute = %v, want %v", procs, rep.Breakdowns[0].Compute, wantCompute)
		}
		if rep.Makespan < wantCompute {
			t.Errorf("procs=%d makespan %v below compute %v", procs, rep.Makespan, wantCompute)
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	prog := NewProgram()
	prog.Body = Block{&Serial{Time: Num(1)}}
	if _, err := Evaluate(prog, Options{Procs: 0, DB: constDB(1, 0, 0, 1)}); err == nil {
		t.Error("zero procs should fail")
	}
	if _, err := Evaluate(prog, Options{Procs: 1}); err == nil {
		t.Error("nil DB should fail")
	}
	bad := NewProgram()
	bad.Body = Block{&Msg{Kind: MsgSend, Size: Num(4), From: Num(5), To: Num(0)}}
	if _, err := Evaluate(bad, Options{Procs: 2, DB: constDB(1, 0, 0, 1)}); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	wrongProc := NewProgram()
	wrongProc.Body = Block{&Msg{Kind: MsgSend, Size: Num(4), From: Num(1), To: Num(0)}}
	if _, err := Evaluate(wrongProc, Options{Procs: 2, DB: constDB(1, 0, 0, 1)}); err == nil {
		t.Error("send executed by non-sender should fail")
	}
}

// TestErrorsAreLazy pins when a failing expression or directive
// surfaces: only when a process executes it, and then with the error of
// the first failing check in that directive. A failure in a branch no
// process takes, in a zero-pass Loop, or behind a receive that never
// completes must not change the outcome.
func TestErrorsAreLazy(t *testing.T) {
	e := MustExpr
	program := lazyProgram
	recvLeft := &Msg{Kind: MsgRecv, Size: Num(4), From: e("(procnum+1) % numprocs"), To: Var("procnum")}
	cases := []lazyCase{
		{
			name: "runon condition after an always-true one",
			prog: program(nil, &Runon{
				Conds:  []Expr{Num(1), e("1/0")},
				Bodies: []Block{{&Serial{Time: Num(1)}}, {&Serial{Time: Num(2)}}},
			}),
			procs:     2,
			wantTimes: []float64{1, 1},
		},
		{
			name: "runon body no process takes",
			prog: program(nil, &Runon{
				Conds:  []Expr{e("procnum >= 0"), e("procnum < 0")},
				Bodies: []Block{{&Serial{Time: Num(1)}}, {&Serial{Time: e("1/0")}}},
			}),
			procs:     2,
			wantTimes: []float64{1, 1},
		},
		{
			name: "zero-pass loop body",
			prog: program(nil,
				&Loop{Count: Num(0), Body: Block{&Serial{Time: e("1/0")}, &Loop{Count: Num(-1)}}},
				&Serial{Time: Num(3)}),
			procs:     2,
			wantTimes: []float64{3, 3},
		},
		{
			name: "loop count truncating to zero passes",
			prog: program(nil,
				&Loop{Count: Num(-0.5), Body: Block{&Serial{Time: e("1/0")}}},
				&Serial{Time: Num(3)}),
			procs:   1,
			wantErr: "pevpm: Loop count -0.5 is negative",
		},
		{
			name:    "deadlock before a failing serial",
			prog:    program(nil, recvLeft, &Serial{Time: e("1/0")}),
			procs:   2,
			wantErr: "pevpm: model deadlock: proc 0 in Message MPI_Recv size=4 from=((procnum + 1) % numprocs) to=procnum (posted at 0.000000s); proc 1 in Message MPI_Recv size=4 from=((procnum + 1) % numprocs) to=procnum (posted at 0.000000s)",
		},
		{
			name:      "params binding procnum",
			prog:      program(map[string]float64{"procnum": 7}, &Serial{Time: e("procnum + numprocs")}),
			procs:     3,
			wantTimes: []float64{10, 10, 10},
		},
		{
			// Process 1 fails at its second directive, process 2 at its
			// first: the sweep steps process 1 first, so its error wins.
			name: "lowest failing process wins",
			prog: program(nil,
				&Serial{Time: e("1/(procnum - 2) * (procnum - 2)")},
				&Serial{Time: e("1/(procnum - 1) * (procnum - 1)")}),
			procs:   3,
			wantErr: "pevpm: division by zero in (1 / (procnum - 1))",
		},
		{
			name:    "first failing field of a message",
			prog:    program(nil, &Msg{Kind: MsgSend, Size: e("1/0"), From: Var("undefined"), To: Num(9)}),
			procs:   2,
			wantErr: "pevpm: division by zero in (1 / 0)",
		},
		{
			name:    "collective without collective measurements",
			prog:    program(nil, &Coll{Op: "MPI_Bcast", Size: e("1/0")}),
			procs:   2,
			wantErr: "pevpm: model uses Collective MPI_Bcast but the database has no collective measurements",
		},
		{
			name:    "negative loop count",
			prog:    program(nil, &Serial{Time: Num(1)}, &Loop{Count: Num(-2), Body: Block{&Serial{Time: Num(1)}}}),
			procs:   1,
			wantErr: "pevpm: Loop count -2 is negative",
		},
		{
			name:    "send from another process",
			prog:    program(nil, &Msg{Kind: MsgIsend, Size: Num(4), From: Num(1), To: Num(0)}),
			procs:   2,
			wantErr: "pevpm: send executed by rank 0 but from = 1",
		},
		{
			name: "failing serial after a loop of sends",
			prog: program(nil, &Runon{
				Conds: []Expr{e("procnum == 0"), e("procnum == 1")},
				Bodies: []Block{
					{&Loop{Count: Num(3), Body: Block{&Msg{Kind: MsgIsend, Size: Num(4), From: Num(0), To: Num(1)}}},
						&Serial{Time: Num(-1)}},
					{&Loop{Count: Num(3), Body: Block{&Msg{Kind: MsgRecv, Size: Num(4), From: Num(0), To: Num(1)}}}},
				},
			}),
			procs:   2,
			wantErr: "pevpm: Serial time -1 is negative",
		},
	}
	runLazyCases(t, constDB(1e-4, 0, 0, 1<<20), cases)
}

// TestNonFiniteValuesFailLazily pins the checks on values a directive
// converts or accumulates: NaN, ±Inf and, where an int is needed, values
// outside the int range are errors, not a makespan of 0 or +Inf or an
// implementation-defined conversion. Like every directive error, each
// surfaces only when a process executes it.
func TestNonFiniteValuesFailLazily(t *testing.T) {
	e := MustExpr
	program := lazyProgram
	inf, nan := e("1e308*10"), e("(1e308*10) - (1e308*10)")
	isend := func(size, to Expr) *Msg {
		return &Msg{Kind: MsgIsend, Size: size, From: Num(0), To: to}
	}
	cases := []lazyCase{
		{name: "NaN serial time", prog: program(nil, &Serial{Time: nan}), procs: 1,
			wantErr: "pevpm: Serial time NaN is not finite"},
		{name: "infinite serial time", prog: program(nil, &Serial{Time: inf}), procs: 1,
			wantErr: "pevpm: Serial time +Inf is not finite"},
		{name: "infinite loop count", prog: program(nil, &Loop{Count: inf, Body: Block{&Serial{Time: Num(1)}}}), procs: 1,
			wantErr: "pevpm: Loop count +Inf is not finite"},
		{name: "NaN loop count", prog: program(nil, &Loop{Count: nan, Body: Block{&Serial{Time: Num(1)}}}), procs: 1,
			wantErr: "pevpm: Loop count NaN is not finite"},
		{name: "loop count outside the int range", prog: program(nil, &Loop{Count: Num(1e19), Body: Block{&Serial{Time: Num(1)}}}), procs: 1,
			wantErr: "pevpm: Loop count 1e+19 is outside the int range"},
		{name: "NaN message size", prog: program(nil, isend(nan, Num(1))), procs: 1,
			wantErr: "pevpm: message size NaN is not finite"},
		{name: "message size outside the int range", prog: program(nil, isend(Num(1e300), Num(1))), procs: 1,
			wantErr: "pevpm: message size 1e+300 is outside the int range"},
		{name: "infinite message destination", prog: program(nil, isend(Num(4), inf)), procs: 1,
			wantErr: "pevpm: to = +Inf is not finite"},
		{name: "NaN collective size", prog: program(nil, &Coll{Op: "MPI_Bcast", Size: nan}), procs: 4,
			wantErr: "pevpm: Collective size NaN is not finite"},
		{name: "negative infinite collective size", prog: program(nil, &Coll{Op: "MPI_Bcast", Size: e("0 - 1e308*10")}), procs: 4,
			wantErr: "pevpm: Collective size -Inf is not finite"},
		{
			name: "NaN serial time in a branch no process takes",
			prog: program(nil, &Runon{
				Conds:  []Expr{e("procnum >= 0"), Num(1)},
				Bodies: []Block{{&Serial{Time: Num(1)}}, {&Serial{Time: nan}}},
			}),
			procs:     2,
			wantTimes: []float64{1, 1},
		},
		{
			name: "infinite loop count in a zero-pass loop",
			prog: program(nil,
				&Loop{Count: Num(0), Body: Block{&Loop{Count: inf}}},
				&Serial{Time: Num(2)}),
			procs:     1,
			wantTimes: []float64{2},
		},
		{
			name: "deadlock before an infinite serial time",
			prog: program(nil,
				&Msg{Kind: MsgRecv, Size: Num(4), From: e("1 - procnum"), To: Var("procnum")},
				&Serial{Time: inf}),
			procs:   2,
			wantErr: "pevpm: model deadlock: proc 0 in Message MPI_Recv size=4 from=(1 - procnum) to=procnum (posted at 0.000000s); proc 1 in Message MPI_Recv size=4 from=(1 - procnum) to=procnum (posted at 0.000000s)",
		},
	}
	runLazyCases(t, collDB(t), cases)
}

// lazyCase is one program whose evaluation either fails with an exact
// error or completes with exact per-process times.
type lazyCase struct {
	name      string
	prog      *Program
	procs     int
	wantErr   string    // exact error text, or "" for success
	wantTimes []float64 // per-process completion times on success
}

func lazyProgram(params map[string]float64, body ...Node) *Program {
	prog := NewProgram()
	for k, v := range params {
		prog.Params[k] = v
	}
	prog.Body = body
	return prog
}

func runLazyCases(t *testing.T, db PerfDB, cases []lazyCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Evaluate(c.prog, Options{Procs: c.procs, DB: db})
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range c.wantTimes {
				if rep.ProcTimes[i] != want {
					t.Errorf("proc %d time = %v, want %v", i, rep.ProcTimes[i], want)
				}
			}
		})
	}
}
