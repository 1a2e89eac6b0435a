package pevpm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mpibench"
	"repro/internal/stats"
)

// collSet builds a fake benchmark set: MPI_Bcast completion time =
// procs·100µs ± small spread, at two job sizes.
func collSet(t *testing.T) *mpibench.Set {
	t.Helper()
	set := &mpibench.Set{Cluster: "fake"}
	for _, procs := range []int{4, 16} {
		res := &mpibench.Result{
			Cluster: "fake", Op: mpibench.OpBcast,
			Placement: map[int]string{4: "4x1", 16: "16x1"}[procs],
			Procs:     procs, BinWidth: 1e-6,
		}
		for _, size := range []int{1024, 8192} {
			h := stats.NewHistogram(1e-6)
			center := float64(procs) * 100e-6
			for i := -20; i <= 20; i++ {
				h.Add(center + float64(i)*1e-6)
			}
			res.Points = append(res.Points, mpibench.Point{Size: size, Hist: h})
		}
		set.Add(res)
	}
	return set
}

func collProgram(iters int) *Program {
	prog := NewProgram()
	prog.Body = Block{&Loop{Count: Num(float64(iters)), Body: Block{
		&Coll{Op: "MPI_Bcast", Size: Num(1024)},
		&Serial{Time: Num(1e-3)},
	}}}
	return prog
}

func collDB(t *testing.T) *CollectiveDB {
	t.Helper()
	db, err := NewCollectiveDB(constDB(100e-6, 0, 0, 1<<20), collSet(t))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCollectiveDirectiveTiming(t *testing.T) {
	db := collDB(t)
	rep, err := Evaluate(collProgram(10), Options{Procs: 4, DB: db, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: ~400µs bcast + 1ms compute.
	want := 10 * (400e-6 + 1e-3)
	if math.Abs(rep.Makespan-want)/want > 0.05 {
		t.Errorf("makespan %v, want ~%v", rep.Makespan, want)
	}
	// All processes leave each collective together (synchronisation):
	// finish times are within the collective's spread of each other.
	for i := 1; i < len(rep.ProcTimes); i++ {
		if math.Abs(rep.ProcTimes[i]-rep.ProcTimes[0]) > 100e-6 {
			t.Errorf("proc %d finished at %v vs proc0 %v — collective did not synchronise",
				i, rep.ProcTimes[i], rep.ProcTimes[0])
		}
	}
	// The collective shows up in the hot spots.
	found := false
	for _, h := range rep.HotSpots() {
		if strings.Contains(h.Directive, "MPI_Bcast") {
			found = true
		}
	}
	if !found {
		t.Error("collective missing from hot spots")
	}
}

func TestCollectiveInterpolatesProcs(t *testing.T) {
	db := collDB(t)
	r8 := mustEval(t, collProgram(5), Options{Procs: 8, DB: db, Seed: 2})
	r4 := mustEval(t, collProgram(5), Options{Procs: 4, DB: db, Seed: 2})
	// 8 procs interpolates linearly between the measured 4-proc (400µs)
	// and 16-proc (1600µs) grids: 400 + (8−4)/(16−4)·1200 = 800µs.
	d8 := r8.Makespan/5 - 1e-3
	d4 := r4.Makespan/5 - 1e-3
	if math.Abs(d4-400e-6) > 50e-6 {
		t.Errorf("4-proc bcast cost %v, want ~400µs", d4)
	}
	if math.Abs(d8-800e-6) > 100e-6 {
		t.Errorf("8-proc bcast cost %v, want ~800µs (interpolated)", d8)
	}
}

func TestCollectiveRequiresDatabase(t *testing.T) {
	_, err := Evaluate(collProgram(1), Options{Procs: 4, DB: constDB(1e-4, 0, 0, 1)})
	if err == nil || !strings.Contains(err.Error(), "collective") {
		t.Errorf("err = %v, want collective-capability error", err)
	}
	db := collDB(t)
	prog := NewProgram()
	prog.Body = Block{&Coll{Op: "MPI_Alltoall", Size: Num(1)}}
	if _, err := Evaluate(prog, Options{Procs: 4, DB: db, Seed: 1}); err == nil {
		t.Error("unbenchmarked collective should fail")
	}
}

func TestCollectiveMismatchDetected(t *testing.T) {
	db := collDB(t)
	// Proc 0 never joins the collective: the rest are stuck forever.
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum != 0")},
		Bodies: []Block{
			{&Serial{Time: Num(1)}},
			{&Coll{Op: "MPI_Bcast", Size: Num(1024)}},
		},
	}}
	_, err := Evaluate(prog, Options{Procs: 4, DB: db, Seed: 1})
	if !errors.Is(err, ErrModelDeadlock) {
		t.Fatalf("err = %v, want deadlock from collective mismatch", err)
	}
}

func TestCollectiveDivergentCollectives(t *testing.T) {
	db, err := NewCollectiveDB(constDB(100e-6, 0, 0, 1<<20), func() *mpibench.Set {
		set := collSet(t)
		// Add a second op so both branches are benchmarked.
		res := &mpibench.Result{Cluster: "fake", Op: mpibench.OpBarrier, Placement: "4x1", Procs: 4}
		h := stats.NewHistogram(1e-6)
		for i := 0; i < 50; i++ {
			h.Add(50e-6)
		}
		res.Points = []mpibench.Point{{Size: 0, Hist: h}}
		set.Add(res)
		return set
	}())
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram()
	prog.Body = Block{&Runon{
		Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum != 0")},
		Bodies: []Block{
			{&Coll{Op: "MPI_Barrier", Size: Num(0)}},
			{&Coll{Op: "MPI_Bcast", Size: Num(1024)}},
		},
	}}
	_, err = Evaluate(prog, Options{Procs: 4, DB: db, Seed: 1})
	if !errors.Is(err, ErrModelDeadlock) {
		t.Fatalf("err = %v, want mismatch error", err)
	}
}

func TestCollectiveDirectiveParses(t *testing.T) {
	prog, err := Parse(`
PEVPM Loop n = 3
PEVPM {
PEVPM   Collective type = MPI_Bcast
PEVPM   &          size = 1024
PEVPM   &          root = 0
PEVPM   Serial time = 0.001
PEVPM }
`)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*Loop)
	coll, ok := loop.Body[0].(*Coll)
	if !ok || coll.Op != "MPI_Bcast" || coll.Root == nil {
		t.Fatalf("parsed %+v", loop.Body[0])
	}
	// Round trip.
	back, err := Parse(Format(prog))
	if err != nil {
		t.Fatal(err)
	}
	if Format(back) != Format(prog) {
		t.Error("Collective directive does not round-trip")
	}
}

func TestCollectiveParseErrors(t *testing.T) {
	cases := []string{
		"PEVPM Collective size = 4",         // missing type
		"PEVPM Collective type = MPI_Bcast", // missing size
		"PEVPM Collective type = MPI_Bcast\nPEVPM & bogus = 1\nPEVPM & size = 1",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}
