// Quickstart: a five-minute tour of the library.
//
//  1. Simulate the Perseus cluster and run an MPI program on it.
//  2. Benchmark MPI_Isend with MPIBench and look at the distribution —
//     not just the average.
//  3. Fit a parametric model to the measured histogram.
//  4. Predict a program's run time with PEVPM and compare it against
//     actually executing the program.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/netsim"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	cfg := cluster.Perseus()

	// --- 1. Run an MPI program on the simulated cluster. ---------------
	pl, err := cluster.NewPlacement(&cfg, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := workloads.Execute(cfg, pl, 1, func(c *mpi.Comm) {
		// A ring: each rank passes a 1 KB token to the right.
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for i := 0; i < 10; i++ {
			c.Sendrecv(next, 0, 1024, prev, 0)
		}
		c.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. ring program on %s finished at t=%v (%.0f wire bytes moved)\n",
		pl, res.Makespan, float64(res.Net.WireBytes))

	// --- 2. Benchmark a communication operation. ------------------------
	bench, err := mpibench.Run(cfg, mpibench.Spec{
		Op:        mpibench.OpIsend,
		Sizes:     []int{1024},
		Placement: pl,
		Seed:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	pt, _ := bench.PointFor(1024)
	fmt.Printf("2. MPI_Isend(1KB) on %s: min %.0fµs, mean %.0fµs, p99 %.0fµs — a distribution, not a number\n",
		pl, pt.Min()*1e6, pt.Avg()*1e6, pt.Hist.Quantile(0.99)*1e6)

	// --- 3. Fit parametric models to the histogram. ---------------------
	fits := stats.FitBest(pt.Hist)
	if len(fits) > 0 {
		fmt.Printf("3. best parametric fit: %s (KS distance %.3f)\n", fits[0].Name, fits[0].KS)
	}

	// --- 4. Predict with PEVPM, then verify by execution. ---------------
	j := workloads.Jacobi{XSize: 256, Iterations: 50, SweepSeconds: cluster.JacobiSweepSeconds}
	prog, err := j.Model()
	if err != nil {
		log.Fatal(err)
	}
	set := &mpibench.Set{Cluster: cfg.Name}
	set.Add(bench)
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpIsend, cfg)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := pevpm.Predict(prog, db, pevpm.PredictSpec{Procs: 4, NodeOf: pl.NodeOf, Runs: 10, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	actual, err := workloads.Execute(cfg, pl, 4, j.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. Jacobi on %s: PEVPM predicts %.4fs, actual execution %.4fs (%.1f%% apart)\n",
		pl, pred.Mean, actual.Makespan.Seconds(),
		100*abs(pred.Mean-actual.Makespan.Seconds())/actual.Makespan.Seconds())

	// --- 5. Trace an execution to see its time-structure. ---------------
	e := sim.NewEngine(5)
	netw := netsim.New(e, cfg)
	w := mpi.NewWorld(e, netw, pl)
	tl := trace.NewLog(0)
	w.SetTrace(tl)
	tiny := workloads.Jacobi{XSize: 256, Iterations: 3, SweepSeconds: cluster.JacobiSweepSeconds}
	w.Launch(tiny.Run)
	if _, err := w.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("5. three traced Jacobi iterations (C compute, r receive-wait, s send):")
	fmt.Print(tl.Gantt(70))
	for _, s := range tl.Summaries() {
		fmt.Printf("   rank%-2d: %2d sends, %2d recvs, compute %8v, recv-wait %8v\n",
			s.Rank, s.Sends, s.Recvs, s.Compute, s.RecvWait)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
