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
		sum, err := pevpm.EvaluateN(tf.Model(n), pevpm.Options{
			Procs: n, DB: db, Seed: uint64(50 + n), NodeOf: pl.NodeOf,
		}, 5)
		if err != nil {
			log.Fatal(err)
		}
		got := actual.Makespan.Seconds()
		workers := float64(n - 1)
		fmt.Printf("%-8s%11.4fs%11.4fs%9.1f%%%11.1f%%\n",
			pl, got, sum.Mean, 100*(sum.Mean-got)/got,
			100*serial/(got*workers))
	}

	// Where does the farm lose time at scale? Ask the model.
	rep, err := pevpm.Evaluate(tf.Model(32), pevpm.Options{Procs: 32, DB: db, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop waiting directives at 32 processes (the master deals and")
	fmt.Println("collects serially, so workers queue on rank 0):")
	for i, h := range rep.HotSpots() {
		if i >= 3 {
			break
		}
		fmt.Printf("  %8.4fs  %s\n", h.Wait, h.Directive)
	}
}
