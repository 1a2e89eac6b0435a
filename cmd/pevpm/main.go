// Command pevpm evaluates a PEVPM model (a .pvm file of performance
// directives) against a performance database produced by cmd/mpibench,
// predicting the modelled program's execution time.
//
// Usage:
//
//	pevpm -model jacobi.pvm -db bench.json -procs 64 -runs 20
//
// It prints pevpm.Predict's prediction, the one pevpmd serves: the same
// model, measurements, world, mode, runs and seed give the same numbers.
// The -mode flag selects between the paper's prediction variants:
// "dist" (sample full distributions — the accurate mode), "avg-nxp",
// "avg-2x1" and "min-2x1" (the simplistic modes Figure 6 shows to be
// misleading). Exit status is 1 when a prediction fails and 2 on usage
// errors, -procs, -pernode or -runs below 1 and an unknown -mode among
// them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pevpm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", "path to the .pvm model file")
	dbPath := fs.String("db", "", "path to an mpibench result-set JSON")
	op := fs.String("op", "MPI_Send", "benchmark operation backing the database")
	procs := fs.Int("procs", 4, "number of processes to model")
	perNode := fs.Int("pernode", 1, "processes per node (for intra-node message pricing)")
	runs := fs.Int("runs", 20, "Monte-Carlo evaluations")
	seed := fs.Uint64("seed", 1, "evaluation seed")
	mode := fs.String("mode", "dist", "prediction mode: "+strings.Join(pevpm.Modes, ", "))
	fitted := fs.Bool("fitted", false, "replace measured histograms with parametric fits (§2's 'parametrised functions')")
	gantt := fs.Bool("gantt", false, "print the predicted per-process timeline")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	_, modeErr := pevpm.ModeDB(nil, *mode)
	refusal := ""
	switch {
	case *modelPath == "" || *dbPath == "":
		refusal = "-model and -db are required"
	case *procs < 1:
		refusal = fmt.Sprintf("-procs %d: need at least 1", *procs)
	case *perNode < 1:
		refusal = fmt.Sprintf("-pernode %d: need at least 1", *perNode)
	case *runs < 1:
		refusal = fmt.Sprintf("-runs %d: need at least 1", *runs)
	case modeErr != nil:
		refusal = "-" + modeErr.Error()
	}
	if refusal != "" {
		fmt.Fprintln(stderr, "pevpm: "+refusal)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, errorLine(err))
		return 1
	}

	src, err := os.ReadFile(*modelPath)
	if err != nil {
		return fail(err)
	}
	prog, err := pevpm.Parse(string(src))
	if err != nil {
		return fail(err)
	}
	set, err := mpibench.LoadFile(*dbPath)
	if err != nil {
		return fail(err)
	}
	cfg := cluster.Perseus()
	empirical, err := pevpm.NewEmpiricalDB(set, mpibench.Op(*op), cfg)
	if err != nil {
		return fail(err)
	}
	var db pevpm.PerfDB = empirical
	if *fitted {
		fdb, err := pevpm.NewFittedDBFrom(empirical)
		if err != nil {
			return fail(err)
		}
		for _, p := range fdb.Report() {
			fmt.Fprintf(stdout, "fit: %-18s size %-8d %-20s KS %.3f\n", p.Placement, p.Size, p.Family, p.KS)
		}
		db = fdb
	}
	nodes := (*procs + *perNode - 1) / *perNode
	pl, err := cluster.NewPlacement(&cfg, nodes, *perNode)
	if err != nil {
		return fail(err)
	}
	var tl *trace.Log
	if *gantt {
		tl = trace.NewLog(2_000_000)
	}
	pred, err := pevpm.Predict(prog, db, pevpm.PredictSpec{
		Procs: *procs, NodeOf: pl.NodeOf, Mode: *mode, Runs: *runs, Seed: *seed, Trace: tl,
	})
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "model:    %s (%d processes as %s, mode %s)\n", *modelPath, *procs, pl, *mode)
	fmt.Fprintln(stdout, predictedLine(pred))
	fmt.Fprintf(stdout, "sweeps:   %d, messages: %d\n", pred.Sweeps, pred.Messages)
	fmt.Fprintf(stdout, "per-process averages: compute %.6fs, send %.6fs, receive-wait %.6fs\n",
		pred.Breakdown.Compute, pred.Breakdown.SendBusy, pred.Breakdown.RecvWait)
	if len(pred.HotSpots) > 0 {
		fmt.Fprintln(stdout, "\ntop waiting directives:")
		for _, h := range pred.HotSpots {
			fmt.Fprintf(stdout, "  %8.4fs  %s\n", h.Wait, h.Directive)
		}
	}
	if tl != nil {
		fmt.Fprintln(stdout, "\npredicted timeline (C compute, r receive-wait, s send):")
		fmt.Fprint(stdout, tl.Gantt(100))
	}
	return 0
}

// predictedLine is the summary line of a prediction's makespans.
func predictedLine(p *pevpm.Prediction) string {
	return fmt.Sprintf("predicted: %.6f s  (±%.6f over %d runs, min %.6f max %.6f)",
		p.Mean, p.Std, p.Runs, p.Min, p.Max)
}

// errorLine is the line a failed prediction prints: the error behind
// one "pevpm: " prefix, which errors from internal/pevpm already start
// with.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "pevpm: ") {
		msg = "pevpm: " + msg
	}
	return msg
}
