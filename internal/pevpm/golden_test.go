package pevpm_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden JSON fixtures")

// goldenPath pins every observable output of Evaluate over a fixed set
// of models and databases. Rewrite it only with
// go test ./internal/pevpm -run TestEvaluateGolden -update-golden.
const goldenPath = "testdata/evaluate_golden.json"

// goldenResult is one case's outputs, floats written exactly.
type goldenResult struct {
	Error        string            `json:"error,omitempty"`
	Makespan     string            `json:"makespan,omitempty"`
	ProcTimes    []string          `json:"proc_times,omitempty"`
	Sweeps       int               `json:"sweeps,omitempty"`
	MessagesSent uint64            `json:"messages_sent,omitempty"`
	Breakdowns   [][3]string       `json:"breakdowns,omitempty"` // compute, send busy, recv wait
	HotSpots     [][2]string       `json:"hot_spots,omitempty"`  // directive, wait
	Metrics      *metrics.Snapshot `json:"metrics,omitempty"`
	TraceEvents  int               `json:"trace_events,omitempty"`
	TraceFNV     string            `json:"trace_fnv,omitempty"`
}

func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldenHist is a skewed, deterministic latency histogram: a floor plus
// a quadratic tail, so quantile draws move with the uniform variate.
func goldenHist(floor float64) *stats.Histogram {
	h := stats.NewHistogram(floor / 200)
	for i := 0; i < 100; i++ {
		tail := float64((i*i)%97) / 97
		h.Add(floor * (1 + 0.4*tail*tail))
	}
	return h
}

// goldenSet is a hand-made MPI_Send benchmark set on Perseus: two
// inter-node contention levels and one single-node (intra) placement,
// sizes spanning the eager limit. Building it runs no simulation, so the
// golden pins Evaluate alone.
func goldenSet() *mpibench.Set {
	set := &mpibench.Set{Cluster: "golden"}
	for _, pc := range []struct {
		placement string
		procs     int
		base      float64
	}{{"2x1", 2, 60e-6}, {"8x1", 8, 90e-6}, {"1x2", 2, 12e-6}} {
		res := &mpibench.Result{
			Cluster: "golden", Op: mpibench.OpSend,
			Placement: pc.placement, Procs: pc.procs, BinWidth: 1e-6,
		}
		for _, size := range []int{0, 1024, 8192, 65536} {
			floor := pc.base + float64(size)*9e-9*float64(pc.procs)/2
			res.Points = append(res.Points, mpibench.Point{Size: size, Hist: goldenHist(floor)})
		}
		set.Add(res)
	}
	bcast := &mpibench.Set{Cluster: "golden"}
	for _, procs := range []int{2, 8} {
		res := &mpibench.Result{
			Cluster: "golden", Op: mpibench.OpBcast,
			Placement: fmt.Sprintf("%dx1", procs), Procs: procs, BinWidth: 1e-6,
		}
		for _, size := range []int{1024, 8192} {
			floor := float64(procs) * (40e-6 + float64(size)*2e-9)
			res.Points = append(res.Points, mpibench.Point{Size: size, Hist: goldenHist(floor)})
		}
		bcast.Add(res)
	}
	for _, res := range bcast.Results {
		set.Add(res)
	}
	return set
}

// goldenCase is one evaluation to pin.
type goldenCase struct {
	name  string
	prog  *pevpm.Program
	opts  pevpm.Options
	trace bool
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	cfg := cluster.Perseus()
	set := goldenSet()
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The 1x2 result must feed the intra-node lookups: its 12 µs floor,
	// not the 2x1 result's 60 µs.
	if m := db.MinIntra(0, 2); m > 20e-6 {
		t.Fatalf("golden database has no intra-node data: intra minimum %v", m)
	}
	coll, err := pevpm.NewCollectiveDB(db, set)
	if err != nil {
		t.Fatal(err)
	}
	placement := func(nodes, perNode int) cluster.Placement {
		pl, err := cluster.NewPlacement(&cfg, nodes, perNode)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	pl8x1, pl4x2 := placement(8, 1), placement(4, 2)

	jacobi, err := workloads.Jacobi{XSize: 256, Iterations: 20, SweepSeconds: cluster.JacobiSweepSeconds}.Model()
	if err != nil {
		t.Fatal(err)
	}
	fft := workloads.FFT{PointsPerProc: 4096, BytesPerPoint: 8, StageSeconds: 120e-9, Rounds: 4}
	if fft.BlockBytes() <= db.EagerLimit() {
		t.Fatalf("FFT block %d B does not exceed the eager limit %d B", fft.BlockBytes(), db.EagerLimit())
	}
	farm := workloads.DefaultTaskFarm()
	farm.Tasks = 40

	e := pevpm.MustExpr
	msg := func(kind pevpm.MsgKind, size float64, from, to pevpm.Expr) *pevpm.Msg {
		return &pevpm.Msg{Kind: kind, Size: pevpm.Num(size), From: from, To: to}
	}
	program := func(body ...pevpm.Node) *pevpm.Program {
		prog := pevpm.NewProgram()
		prog.Body = body
		return prog
	}
	// A ring exchange between collectives, with per-process compute.
	collective := program(&pevpm.Loop{Count: pevpm.Num(5), Body: pevpm.Block{
		&pevpm.Serial{Time: e("1e-4*(procnum+1)")},
		&pevpm.Coll{Op: "MPI_Bcast", Size: pevpm.Num(1024)},
		msg(pevpm.MsgIsend, 1024, e("procnum"), e("(procnum+1)%numprocs")),
		msg(pevpm.MsgRecv, 1024, e("(procnum+numprocs-1)%numprocs"), e("procnum")),
	}})
	deadlock := program(msg(pevpm.MsgRecv, 4, e("(procnum+numprocs-1)%numprocs"), e("procnum")))
	// Process 0 parks on its receive before process 1's second sweep
	// evaluates the undefined variable.
	exprAfterPark := program(&pevpm.Runon{
		Conds: []pevpm.Expr{e("procnum == 0"), e("procnum == 1")},
		Bodies: []pevpm.Block{
			{msg(pevpm.MsgSend, 64, e("0"), e("1")), msg(pevpm.MsgRecv, 64, e("1"), e("0"))},
			{msg(pevpm.MsgRecv, 64, e("0"), e("1")), &pevpm.Serial{Time: e("undefined_cost")}},
		},
	})
	collMismatch := program(&pevpm.Runon{
		Conds: []pevpm.Expr{e("procnum == 0"), e("procnum != 0")},
		Bodies: []pevpm.Block{
			{&pevpm.Serial{Time: pevpm.Num(1e-3)}},
			{&pevpm.Coll{Op: "MPI_Bcast", Size: pevpm.Num(1024)}},
		},
	})

	return []goldenCase{
		{name: "jacobi_8x1", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: db, Seed: 1, NodeOf: pl8x1.NodeOf}},
		{name: "jacobi_4x2", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: db, Seed: 2, NodeOf: pl4x2.NodeOf}},
		{name: "jacobi_4x2_collapse_mean", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: pevpm.Collapse(db, pevpm.ModeMean), Seed: 3, NodeOf: pl4x2.NodeOf}},
		{name: "jacobi_4x2_collapse_min", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: pevpm.Collapse(db, pevpm.ModeMin), Seed: 4, NodeOf: pl4x2.NodeOf}},
		{name: "jacobi_8x1_fix_contention_2", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: pevpm.FixContention(db, 2), Seed: 5, NodeOf: pl8x1.NodeOf}},
		{name: "jacobi_4x2_trace", prog: jacobi, opts: pevpm.Options{Procs: 8, DB: db, Seed: 6, NodeOf: pl4x2.NodeOf}, trace: true},
		{name: "fft_8_rendezvous", prog: fft.Model(8), opts: pevpm.Options{Procs: 8, DB: db, Seed: 7}},
		{name: "fft_8_rendezvous_4x2", prog: fft.Model(8), opts: pevpm.Options{Procs: 8, DB: db, Seed: 8, NodeOf: pl4x2.NodeOf}},
		{name: "taskfarm_8", prog: farm.Model(8), opts: pevpm.Options{Procs: 8, DB: db, Seed: 9, NodeOf: pl8x1.NodeOf}},
		{name: "collective_4", prog: collective, opts: pevpm.Options{Procs: 4, DB: coll, Seed: 10}},
		{name: "error_deadlock", prog: deadlock, opts: pevpm.Options{Procs: 3, DB: db, Seed: 11}},
		{name: "error_expr_after_park", prog: exprAfterPark, opts: pevpm.Options{Procs: 2, DB: db, Seed: 12}},
		{name: "error_collective_mismatch", prog: collMismatch, opts: pevpm.Options{Procs: 3, DB: coll, Seed: 13}},
	}
}

func runGoldenCase(c goldenCase) goldenResult {
	opts := c.opts
	if c.trace {
		opts.Trace = trace.NewLog(0)
	}
	rep, err := pevpm.Evaluate(c.prog, opts)
	if err != nil {
		return goldenResult{Error: err.Error()}
	}
	g := goldenResult{
		Makespan:     exact(rep.Makespan),
		Sweeps:       rep.Sweeps,
		MessagesSent: rep.MessagesSent,
		Metrics:      &rep.Metrics,
	}
	for _, v := range rep.ProcTimes {
		g.ProcTimes = append(g.ProcTimes, exact(v))
	}
	for _, b := range rep.Breakdowns {
		g.Breakdowns = append(g.Breakdowns, [3]string{exact(b.Compute), exact(b.SendBusy), exact(b.RecvWait)})
	}
	for _, h := range rep.HotSpots() {
		g.HotSpots = append(g.HotSpots, [2]string{h.Directive, exact(h.Wait)})
	}
	if opts.Trace != nil {
		events := opts.Trace.Events()
		h := fnv.New64a()
		for _, ev := range events {
			fmt.Fprintf(h, "%d %d %d %d %d %d %q\n", ev.Time, ev.Rank, ev.Kind, ev.Peer, ev.Tag, ev.Size, ev.Note)
		}
		g.TraceEvents = len(events)
		g.TraceFNV = fmt.Sprintf("%016x", h.Sum64())
	}
	return g
}

// TestEvaluateGolden pins Evaluate's outputs bit for bit: makespans,
// per-process times and breakdowns, sweeps, hot spots, the metrics
// snapshot, a hash of the predicted trace, and the exact error text of
// failing models.
func TestEvaluateGolden(t *testing.T) {
	got := make(map[string]goldenResult)
	for _, c := range goldenCases(t) {
		got[c.name] = runGoldenCase(c)
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.FromSlash(goldenPath)
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite with -update-golden)", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var wantCases map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	for name, res := range got {
		b, err := json.MarshalIndent(res, " ", " ")
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Indent(&w, wantCases[name], " ", " "); err != nil || !bytes.Equal(b, w.Bytes()) {
			t.Errorf("case %s differs from %s:\ngot  %s\nwant %s", name, goldenPath, b, w.Bytes())
		}
	}
	if len(wantCases) != len(got) {
		t.Errorf("golden has %d cases, test produced %d", len(wantCases), len(got))
	}
}
