// Summa: a collective-driven workload demonstrating the Collective
// directive extension. Instead of decomposing every broadcast's binomial
// tree into Message directives, the PEVPM model prices whole collectives
// from distributions MPIBench measured — including the per-instance
// slowest-rank distribution that only a benchmark timing every rank on a
// global clock can record.
//
// Run with: go run ./examples/summa
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
	s := workloads.Summa{
		PanelBytes:   8192,
		ReduceBytes:  64,
		Iterations:   60,
		FlopsSeconds: 2e-3,
	}
	fmt.Println("The model, in directive syntax (note the Collective directives):")
	fmt.Println(s.PVM())

	var pls []cluster.Placement
	for _, n := range []int{4, 8, 16, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		pls = append(pls, pl)
	}
	fmt.Println("benchmarking MPI_Bcast and MPI_Allreduce with MPIBench...")
	set := &mpibench.Set{Cluster: cfg.Name}
	for _, op := range []mpibench.Op{mpibench.OpBcast, mpibench.OpAllreduce} {
		part, err := mpibench.RunSweep(cfg, mpibench.Spec{
			Op:          op,
			Sizes:       []int{64, 1024, 8192},
			Repetitions: 100,
			Seed:        11,
		}, pls)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range part.Results {
			set.Add(r)
		}
	}
	db, err := pevpm.NewCollectiveDB(pevpm.LogGPStyleDB(200e-6, 10e6, 16384), set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collectives in the database: %v\n\n", db.CollectiveOps())

	fmt.Printf("%-8s%12s%12s%10s\n", "config", "measured", "predicted", "error")
	for _, pl := range pls {
		actual, err := workloads.Execute(cfg, pl, uint64(600+pl.NodeCount), s.Run)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := pevpm.Predict(s.Model(), db, pevpm.PredictSpec{
			Procs: pl.NumProcs(), NodeOf: pl.NodeOf, Runs: 8, Seed: uint64(700 + pl.NodeCount),
		})
		if err != nil {
			log.Fatal(err)
		}
		got := actual.Makespan.Seconds()
		fmt.Printf("%-8s%11.4fs%11.4fs%9.1f%%\n", pl, got, pred.Mean, 100*(pred.Mean-got)/got)
	}
	fmt.Println("\nThe predictions run a few percent high: PEVPM releases the whole job")
	fmt.Println("at each collective's slowest-rank completion, a safe upper bound when")
	fmt.Println("successive collectives' critical paths run through different ranks.")
}
