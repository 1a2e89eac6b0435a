// Command pevpm evaluates a PEVPM model (a .pvm file of performance
// directives) against a performance database produced by cmd/mpibench,
// predicting the modelled program's execution time.
//
// Usage:
//
//	pevpm -model jacobi.pvm -db bench.json -procs 64 -runs 20
//
// The -mode flag selects between the paper's prediction variants:
// "dist" (sample full distributions — the accurate mode), "avg-nxp",
// "avg-2x1" and "min-2x1" (the simplistic modes Figure 6 shows to be
// misleading).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/trace"
)

func main() {
	modelPath := flag.String("model", "", "path to the .pvm model file")
	dbPath := flag.String("db", "", "path to an mpibench result-set JSON")
	op := flag.String("op", "MPI_Send", "benchmark operation backing the database")
	procs := flag.Int("procs", 4, "number of processes to model")
	perNode := flag.Int("pernode", 1, "processes per node (for intra-node message pricing)")
	runs := flag.Int("runs", 20, "Monte-Carlo evaluations")
	seed := flag.Uint64("seed", 1, "evaluation seed")
	mode := flag.String("mode", "dist", "prediction mode: dist, avg-nxp, avg-2x1, min-2x1")
	fitted := flag.Bool("fitted", false, "replace measured histograms with parametric fits (§2's 'parametrised functions')")
	hotspots := flag.Int("hotspots", 5, "show the top-N waiting directives")
	gantt := flag.Bool("gantt", false, "print the predicted per-process timeline")
	flag.Parse()

	if *modelPath == "" || *dbPath == "" {
		fmt.Fprintln(os.Stderr, "pevpm: -model and -db are required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*modelPath)
	if err != nil {
		fatal(err)
	}
	prog, err := pevpm.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	set, err := mpibench.LoadFile(*dbPath)
	if err != nil {
		fatal(err)
	}
	cfg := cluster.Perseus()
	empirical, err := pevpm.NewEmpiricalDB(set, mpibench.Op(*op), cfg)
	if err != nil {
		fatal(err)
	}
	var base pevpm.PerfDB = empirical
	if *fitted {
		fdb, err := pevpm.NewFittedDBFrom(empirical)
		if err != nil {
			fatal(err)
		}
		for _, p := range fdb.Report() {
			fmt.Printf("fit: %-18s size %-8d %-20s KS %.3f\n", p.Placement, p.Size, p.Family, p.KS)
		}
		base = fdb
	}
	var db pevpm.PerfDB
	switch *mode {
	case "dist":
		db = base
	case "avg-nxp":
		db = pevpm.Collapse(base, pevpm.ModeMean)
	case "avg-2x1":
		db = pevpm.Collapse(pevpm.FixContention(base, 2), pevpm.ModeMean)
	case "min-2x1":
		db = pevpm.Collapse(pevpm.FixContention(base, 2), pevpm.ModeMin)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	nodes := (*procs + *perNode - 1) / *perNode
	pl, err := cluster.NewPlacement(&cfg, nodes, *perNode)
	if err != nil {
		fatal(err)
	}
	opts := pevpm.Options{Procs: *procs, DB: db, Seed: *seed, NodeOf: pl.NodeOf}

	// One detailed evaluation for the breakdown, then the Monte-Carlo set.
	var tl *trace.Log
	if *gantt {
		tl = trace.NewLog(2_000_000)
		opts.Trace = tl
	}
	rep, err := pevpm.Evaluate(prog, opts)
	if err != nil {
		fatal(err)
	}
	opts.Trace = nil // Monte-Carlo runs stay untraced
	sum, err := pevpm.EvaluateN(prog, opts, *runs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model:    %s (%d processes as %s, mode %s)\n", *modelPath, *procs, pl, *mode)
	fmt.Printf("predicted: %.6f s  (±%.6f over %d runs, min %.6f max %.6f)\n",
		sum.Mean, sum.Std(), sum.N, sum.Min, sum.Max)
	fmt.Printf("sweeps:   %d, messages: %d\n", rep.Sweeps, rep.MessagesSent)

	var compute, send, wait float64
	for _, b := range rep.Breakdowns {
		compute += b.Compute
		send += b.SendBusy
		wait += b.RecvWait
	}
	n := float64(len(rep.Breakdowns))
	fmt.Printf("per-process averages: compute %.6fs, send %.6fs, receive-wait %.6fs\n",
		compute/n, send/n, wait/n)
	if hot := rep.HotSpots(); *hotspots > 0 && len(hot) > 0 {
		fmt.Println("\ntop waiting directives:")
		for i, h := range hot {
			if i >= *hotspots {
				break
			}
			fmt.Printf("  %8.4fs  %s\n", h.Wait, h.Directive)
		}
	}
	if tl != nil {
		fmt.Println("\npredicted timeline (C compute, r receive-wait, s send):")
		fmt.Print(tl.Gantt(100))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine is the line fatal prints: the error behind one "pevpm: "
// prefix, which errors from internal/pevpm already start with.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "pevpm: ") {
		msg = "pevpm: " + msg
	}
	return msg
}
