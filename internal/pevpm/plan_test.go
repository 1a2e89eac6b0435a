package pevpm_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/workloads"
)

// reportBits renders everything an evaluation returns, floats as their
// bits and the metrics snapshot as its JSON, so two evaluations compare
// bit for bit; a failed evaluation renders as its error text.
func reportBits(rep *pevpm.Report, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d makespan=%x sweeps=%d sent=%d\n",
		rep.Procs, math.Float64bits(rep.Makespan), rep.Sweeps, rep.MessagesSent)
	for i, v := range rep.ProcTimes {
		bd := rep.Breakdowns[i]
		fmt.Fprintf(&b, "proc %d: %x compute=%x send=%x recv=%x\n", i, math.Float64bits(v),
			math.Float64bits(bd.Compute), math.Float64bits(bd.SendBusy), math.Float64bits(bd.RecvWait))
	}
	for _, h := range rep.HotSpots() {
		fmt.Fprintf(&b, "hot %s: %x\n", h.Directive, math.Float64bits(h.Wait))
	}
	js, err := json.Marshal(rep.Metrics)
	if err != nil {
		return "metrics: " + err.Error()
	}
	b.Write(js)
	return b.String()
}

// goldenDBs returns the golden point-to-point database and the database
// that adds its MPI_Bcast measurements.
func goldenDBs(tb testing.TB) (*pevpm.EmpiricalDB, *pevpm.CollectiveDB) {
	tb.Helper()
	set := goldenSet()
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cluster.Perseus())
	if err != nil {
		tb.Fatal(err)
	}
	coll, err := pevpm.NewCollectiveDB(db, set)
	if err != nil {
		tb.Fatal(err)
	}
	return db, coll
}

// fresh is a Program with prog's content that no evaluation has seen.
func fresh(prog *pevpm.Program) *pevpm.Program {
	return &pevpm.Program{Params: maps.Clone(prog.Params), Body: prog.Body}
}

// TestEvaluateFollowsProgramEdits edits a Program between evaluations,
// first a Param and then the whole Body, and requires each evaluation
// after an edit to equal, bit for bit, that of a fresh Program with the
// edited content.
func TestEvaluateFollowsProgramEdits(t *testing.T) {
	db, _ := goldenDBs(t)
	jacobi := func(xsize, iterations int) *pevpm.Program {
		prog, err := workloads.Jacobi{XSize: xsize, Iterations: iterations, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	prog := jacobi(256, 10)
	opts := pevpm.Options{Procs: 8, DB: db, Seed: 3}
	before := reportBits(pevpm.Evaluate(prog, opts))
	if strings.HasPrefix(before, "error") {
		t.Fatal(before)
	}

	prog.Params["iterations"] = 20
	got := reportBits(pevpm.Evaluate(prog, opts))
	if want := reportBits(pevpm.Evaluate(fresh(prog), opts)); got != want {
		t.Errorf("after a Params edit:\n%s\nfresh program:\n%s", got, want)
	}
	if got == before {
		t.Errorf("doubling the iterations left the report unchanged")
	}

	prog.Body = jacobi(128, 20).Body
	got = reportBits(pevpm.Evaluate(prog, opts))
	if want := reportBits(pevpm.Evaluate(fresh(prog), opts)); got != want {
		t.Errorf("after a Body replacement:\n%s\nfresh program:\n%s", got, want)
	}
}

// TestEvaluateSharedProgramConcurrency evaluates one Program from 16
// goroutines at once, alternating between two process counts and
// between a database with collective measurements and one without, and
// requires every report to equal its serial twin from a fresh Program.
// The program reaches its collective only at 8 processes, so its plan at
// 4 processes asks the database nothing, while at 8 the database without
// collectives makes the evaluation fail. Run with -race to prove the
// plan cache and its recycled machines are shared safely.
func TestEvaluateSharedProgramConcurrency(t *testing.T) {
	db, coll := goldenDBs(t)
	e := pevpm.MustExpr
	prog := pevpm.NewProgram()
	prog.Body = pevpm.Block{&pevpm.Loop{Count: pevpm.Num(4), Body: pevpm.Block{
		&pevpm.Serial{Time: e("1e-4*(procnum+1)")},
		&pevpm.Runon{Conds: []pevpm.Expr{e("numprocs == 8")}, Bodies: []pevpm.Block{
			{&pevpm.Coll{Op: "MPI_Bcast", Size: pevpm.Num(1024)}},
		}},
		&pevpm.Msg{Kind: pevpm.MsgIsend, Size: pevpm.Num(1024), From: e("procnum"), To: e("(procnum+1)%numprocs")},
		&pevpm.Msg{Kind: pevpm.MsgRecv, Size: pevpm.Num(1024), From: e("(procnum+numprocs-1)%numprocs"), To: e("procnum")},
	}}}
	const goroutines, rounds = 16, 4
	optsOf := func(g, r int) pevpm.Options {
		o := pevpm.Options{Procs: 4, DB: db, Seed: uint64(g*rounds + r + 1)}
		if g%2 == 1 {
			o.Procs = 8
		}
		if g/2%2 == 1 {
			o.DB = coll
		}
		return o
	}
	want := make([][rounds]string, goroutines)
	outcomes := make(map[string]bool)
	for g := range want {
		for r := range rounds {
			want[g][r] = reportBits(pevpm.Evaluate(fresh(prog), optsOf(g, r)))
			outcomes[strings.SplitN(want[g][r], ":", 2)[0]] = true
		}
	}
	if len(outcomes) < 2 {
		t.Fatalf("every serial evaluation ended alike: %v", outcomes)
	}
	got := make([][rounds]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				got[g][r] = reportBits(pevpm.Evaluate(prog, optsOf(g, r)))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for r := range rounds {
			if got[g][r] != want[g][r] {
				t.Errorf("goroutine %d round %d (%+v):\n%s\nserial twin:\n%s", g, r, optsOf(g, r), got[g][r], want[g][r])
			}
		}
	}
}

// TestEvaluateReplicationAllocs guards what a Monte-Carlo replication
// pays besides its draws: once a Program's plan and a machine of it are
// warm, an Evaluate of Jacobi, FFT or the task farm allocates only its
// Report (the report, its per-process times and breakdowns, its hot-spot
// waits and its metrics, five objects), whatever the process count and
// the iteration count: re-seeding the machine's random stream allocates
// nothing.
func TestEvaluateReplicationAllocs(t *testing.T) {
	const maxAllocs = 7
	db, _ := goldenDBs(t)
	cfg := cluster.Perseus()
	for _, procs := range []int{4, 16, 64} {
		pl, err := cluster.NewPlacement(&cfg, procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{1, 4} {
			jacobi, err := workloads.Jacobi{XSize: 256, Iterations: 10 * scale, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
			if err != nil {
				t.Fatal(err)
			}
			fft := workloads.FFT{PointsPerProc: 1024, BytesPerPoint: 8, StageSeconds: 120e-9, Rounds: 2 * scale}
			farm := workloads.DefaultTaskFarm()
			farm.Tasks = 20 * scale
			for _, c := range []struct {
				name string
				prog *pevpm.Program
			}{
				{"jacobi", jacobi},
				{"fft", fft.Model(procs)},
				{"taskfarm", farm.Model(procs)},
			} {
				opts := pevpm.Options{Procs: procs, DB: db, Seed: 1, NodeOf: pl.NodeOf}
				if _, err := pevpm.Evaluate(c.prog, opts); err != nil {
					t.Fatal(err)
				}
				n := testing.AllocsPerRun(5, func() {
					opts.Seed++
					if _, err := pevpm.Evaluate(c.prog, opts); err != nil {
						t.Fatal(err)
					}
				})
				if n > maxAllocs {
					t.Errorf("%s at %d processes, scale %d: %.0f allocations per warm Evaluate, want at most %d",
						c.name, procs, scale, n, maxAllocs)
				}
			}
		}
	}
}

// TestFirstEvaluateAllocs guards what a first Evaluate pays to
// specialise a Program: at 64 processes each application's plan and
// machine cost about four allocations per process. Only Resolve records
// a plan's warnings, Runon branches and op directives; when every
// evaluation's plan recorded them too, the task farm's first Evaluate
// made 568 allocations and Jacobi's 355.
func TestFirstEvaluateAllocs(t *testing.T) {
	db, _ := goldenDBs(t)
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := workloads.Jacobi{XSize: 256, Iterations: 200, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
	if err != nil {
		t.Fatal(err)
	}
	fft := workloads.FFT{PointsPerProc: 1024, BytesPerPoint: 8, StageSeconds: 120e-9, Rounds: 10}
	for _, c := range []struct {
		name      string
		prog      *pevpm.Program
		maxAllocs float64
	}{
		{"jacobi_64", jacobi, 300},
		{"fft_64", fft.Model(64), 240},
		{"taskfarm_64", workloads.DefaultTaskFarm().Model(64), 245},
	} {
		opts := pevpm.Options{Procs: 64, DB: db, Seed: 1, NodeOf: pl.NodeOf}
		n := testing.AllocsPerRun(5, func() {
			if _, err := pevpm.Evaluate(fresh(c.prog), opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per first Evaluate", c.name, n)
		if n > c.maxAllocs {
			t.Errorf("%s: %.0f allocations per first Evaluate, want at most %.0f", c.name, n, c.maxAllocs)
		}
	}
}
