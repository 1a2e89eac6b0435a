// Task farm: the irregular workload. A master deals independent tasks to
// whichever worker returns first (MPI_ANY_SOURCE), so the communication
// schedule only exists at run time. PEVPM models it with the static
// round-robin schedule the dynamic farm converges to, and its hot-spot
// report identifies the master as the scaling bottleneck.
//
// Run with: go run ./examples/taskfarm
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
	tf := workloads.TaskFarm{
		Tasks:       240,
		TaskSeconds: 15e-3,
		TaskBytes:   512,
		ResultBytes: 2048,
	}
	fmt.Printf("bag of %d tasks, %.0f ms each, %dB out / %dB back\n",
		tf.Tasks, tf.TaskSeconds*1e3, tf.TaskBytes, tf.ResultBytes)

	var benchPls []cluster.Placement
	for _, n := range []int{2, 8, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		benchPls = append(benchPls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op:          mpibench.OpSend,
		Sizes:       []int{0, 512, 2048},
		Repetitions: 100,
		Seed:        31,
	}, benchPls)
	if err != nil {
		log.Fatal(err)
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		log.Fatal(err)
	}

	serial := tf.SerialTime()
	var hot []pevpm.HotSpot // the largest world's, printed after the table
	fmt.Printf("\n%-8s%12s%12s%10s%12s\n", "config", "measured", "predicted", "error", "efficiency")
	for _, n := range []int{2, 4, 8, 16, 32} {
		pl, err := cluster.NewPlacement(&cfg, n, 1)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := workloads.Execute(cfg, pl, uint64(40+n), tf.Run)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := pevpm.Predict(tf.Model(n), db, pevpm.PredictSpec{
			Procs: n, NodeOf: pl.NodeOf, Runs: 5, Seed: uint64(50 + n),
		})
		if err != nil {
			log.Fatal(err)
		}
		hot = pred.HotSpots
		got := actual.Makespan.Seconds()
		workers := float64(n - 1)
		fmt.Printf("%-8s%11.4fs%11.4fs%9.1f%%%11.1f%%\n",
			pl, got, pred.Mean, 100*(pred.Mean-got)/got,
			100*serial/(got*workers))
	}

	// Where does the farm lose time at scale? Ask the model.
	fmt.Println("\ntop waiting directives at 32 processes (the master deals and")
	fmt.Println("collects serially, so workers queue on rank 0):")
	for _, h := range hot[:min(3, len(hot))] {
		fmt.Printf("  %8.4fs  %s\n", h.Wait, h.Directive)
	}
}
