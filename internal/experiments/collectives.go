package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/sim"
)

// The paper measures MPI_Isend in detail and notes that "detailed
// results from MPIBench for other MPI operations are presented in
// Grove's thesis". CollectiveTable is that companion measurement: the
// scaling of the main collective operations with machine size, measured
// the same way (individual per-rank completion times on the global
// clock).

// CollectiveRow is one (operation, configuration) measurement.
type CollectiveRow struct {
	Op        mpibench.Op `json:"op"`
	Placement string      `json:"placement"`
	Procs     int         `json:"procs"`
	Size      int         `json:"size"`
	MinUs     float64     `json:"min_us"`
	MeanUs    float64     `json:"mean_us"`
	P99Us     float64     `json:"p99_us"`
}

// CollectiveOps are the operations the table covers.
var CollectiveOps = []mpibench.Op{
	mpibench.OpBarrier,
	mpibench.OpBcast,
	mpibench.OpReduce,
	mpibench.OpAllreduce,
	mpibench.OpAllgather,
	mpibench.OpAlltoall,
}

// CollectiveTable measures every collective across the node sweep at one
// payload size (Barrier ignores the size). Every (op, node count) row is
// an independent sweep cell — its own cluster, engine and RNG substream
// keyed by the row — executed across Params.Workers goroutines and
// returned in canonical (op-major, node-minor) order.
func CollectiveTable(cfg cluster.Config, p Params, size int) ([]CollectiveRow, error) {
	nodes := p.nodeSweep()
	type cell struct {
		op mpibench.Op
		n  int
	}
	var cells []cell
	for _, op := range CollectiveOps {
		for _, n := range nodes {
			cells = append(cells, cell{op, n})
		}
	}
	return sweep.Map(p.workers(), len(cells), p.Metrics, func(i int) (CollectiveRow, metrics.Snapshot, error) {
		op, n := cells[i].op, cells[i].n
		pl, err := cluster.NewBlockPlacement(&cfg, n, 1)
		if err != nil {
			return CollectiveRow{}, metrics.Snapshot{}, err
		}
		res, err := mpibench.Run(cfg, mpibench.Spec{
			Op:          op,
			Sizes:       []int{size},
			Placement:   pl,
			Repetitions: p.Repetitions,
			WarmUp:      p.WarmUp,
			SyncProbes:  p.SyncProbes,
			Seed:        sim.SubSeed(p.Seed, fmt.Sprintf("collective:%s:%d", op, n)),
		})
		if err != nil {
			return CollectiveRow{}, metrics.Snapshot{}, fmt.Errorf("experiments: %s on %v: %w", op, pl, err)
		}
		pt := res.Points[0]
		return CollectiveRow{
			Op:        op,
			Placement: pl.String(),
			Procs:     pl.NumProcs(),
			Size:      pt.Size,
			MinUs:     pt.Min() * 1e6,
			MeanUs:    pt.Avg() * 1e6,
			P99Us:     pt.Hist.Quantile(0.99) * 1e6,
		}, res.Metrics, nil
	})
}
