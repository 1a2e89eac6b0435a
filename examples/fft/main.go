// FFT: the regular-global workload. Each stage exchanges whole local
// blocks with progressively distant partners, exercising the rendezvous
// protocol and global bandwidth rather than neighbour latency.
//
// The example executes the transform on the simulated cluster for
// several machine sizes, predicts the same runs with PEVPM, and shows
// where the time goes as communication starts to dominate.
//
// Run with: go run ./examples/fft
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
	f := workloads.DefaultFFT()
	fmt.Printf("FFT: %d points/proc, %d B blocks per stage, %d rounds\n",
		f.PointsPerProc, f.BlockBytes(), f.Rounds)

	// One benchmark database serves every prediction.
	var benchPls []cluster.Placement
	for _, n := range []int{2, 4, 8, 16, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		benchPls = append(benchPls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{1024, 4096, 8192, 16384},
		Repetitions: 100,
		Seed:        21,
	}, benchPls)
	if err != nil {
		log.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-8s%12s%12s%10s%14s%14s\n",
		"config", "measured", "predicted", "error", "compute/proc", "commwait/proc")
	for _, n := range []int{2, 4, 8, 16, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := workloads.Execute(cfg, pl, uint64(n), f.Run)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := pevpm.Predict(f.Model(n), db, pevpm.PredictSpec{
			Procs: n, NodeOf: pl.NodeOf, Runs: 4, Seed: uint64(n) + 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		got := actual.Makespan.Seconds()
		fmt.Printf("%-8s%11.4fs%11.4fs%9.1f%%%13.4fs%13.4fs\n",
			pl, got, pred.Mean, 100*(pred.Mean-got)/got,
			pred.Breakdown.Compute, pred.Breakdown.RecvWait)
	}
	fmt.Println("\nAs machines grow, per-stage blocks cross more of the backplane and")
	fmt.Println("the receive-wait column, not the compute column, sets the run time.")
}
