// Jacobi: the paper's §6 case study at reduced scale — predict the
// speedup of a 1-D decomposed Jacobi Iteration on the simulated Perseus
// cluster with PEVPM, using all four prediction modes of Figure 6, and
// compare against actually executing it.
//
// Run with: go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/workloads"
)

func main() {
	cfg := cluster.Perseus()
	j := workloads.Jacobi{
		XSize:        256,
		Iterations:   300,
		SweepSeconds: cluster.JacobiSweepSeconds,
	}
	fmt.Println("The PEVPM model (generated from the paper's Figure 5 directives):")
	fmt.Println(j.PVM())

	prog, err := j.Model()
	if err != nil {
		log.Fatal(err)
	}

	// Benchmark the machine once: MPI_Send distributions across the
	// configurations the predictions will interpolate between, plus the
	// single-node placement for the intra-node (loopback) path.
	var benchPls []cluster.Placement
	for _, spec := range [][2]int{{1, 2}, {2, 1}, {4, 1}, {8, 1}, {16, 1}, {32, 1}} {
		pl, err := cluster.NewPlacement(&cfg, spec[0], spec[1])
		if err != nil {
			log.Fatal(err)
		}
		benchPls = append(benchPls, pl)
	}
	fmt.Println("benchmarking MPI_Send with MPIBench (this is the expensive, once-per-machine step)...")
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{0, 256, 1024, 4096},
		Repetitions: 120,
		Seed:        7,
	}, benchPls)
	if err != nil {
		log.Fatal(err)
	}
	distDB, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		log.Fatal(err)
	}

	serial := j.SerialTime()
	fmt.Printf("\n%-8s%12s", "config", "measured")
	for _, mode := range pevpm.Modes {
		fmt.Printf("%16s", mode)
	}
	fmt.Println("\n        (speedups; the dist mode should track the measured column)")

	for _, n := range []int{2, 4, 8, 16, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := workloads.Execute(cfg, pl, uint64(100+n), j.Run)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s%12.2f", pl, serial/actual.Makespan.Seconds())
		for _, mode := range pevpm.Modes {
			runs := 1 // the point-value modes are deterministic
			if mode == "dist" {
				runs = 8
			}
			pred, err := pevpm.Predict(prog, distDB, pevpm.PredictSpec{
				Procs: pl.NumProcs(), NodeOf: pl.NodeOf, Mode: mode, Runs: runs, Seed: uint64(200 + n),
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%16.2f", serial/pred.Mean)
		}
		fmt.Println()
	}
	fmt.Println("\nNote how the 2x1 (ping-pong) modes overestimate the speedup more and")
	fmt.Println("more as processors are added — the paper's central observation.")
}
