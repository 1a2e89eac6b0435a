package mpibench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// Clock-sync message tags (user context, far above benchmark tags).
const (
	tagSyncGo    = 1 << 20
	tagSyncProbe = tagSyncGo + 1
	tagSyncReply = tagSyncGo + 2
	tagMeasure   = 5
)

// Realistic clock error parameters: offsets up to ±2 s, drift up to
// ±50 ppm, 1 µs read granularity — the situation MPIBench's global
// clock synchronisation has to overcome.
const (
	clockMaxOffset = 2.0
	clockMaxSkew   = 50e-6
	clockJitter    = 1e-6
)

// Run executes one benchmark on a freshly simulated cluster and returns
// the measured distributions. With Spec.Target set it runs adaptively:
// batches of repetitions until the CI width target is met (see
// runAdaptive); otherwise a single fixed-count batch.
func Run(cfg cluster.Config, spec Spec) (*Result, error) {
	spec = spec.Defaults()
	if spec.Op == OpBarrier {
		spec.Sizes = []int{0} // Barrier has no message size; measure once
	}
	if err := spec.Validate(&cfg); err != nil {
		return nil, err
	}
	if spec.Target != nil {
		return runAdaptive(cfg, spec)
	}
	res, raw, err := runBatch(cfg, spec)
	if err != nil {
		return nil, err
	}
	res.Manifest = newManifest(&cfg, spec)
	if spec.Estimates {
		attachEstimates(res, raw.samples, spec, estDefaults(spec))
		markDrift(res, raw.perRep, defaultDriftThreshold)
	}
	return res, nil
}

// rawRun carries a batch's raw measured durations before they are
// folded into histograms: per size, every positive per-rank duration in
// recording order, plus the per-repetition mean series the
// warmup-stationarity drift check runs on.
type rawRun struct {
	samples [][]float64 // [size][observation] seconds
	perRep  [][]float64 // [size][measured repetition] mean across ranks
}

// newWorld builds the simulated machine a benchmark run measures: an
// engine seeded with spec.Seed, the network, an MPI world over
// spec.Placement that does no compute and runs under spec.Faults, and
// one drifting local clock per node (ideal ones with PerfectClocks).
func newWorld(cfg cluster.Config, spec Spec) (*mpi.World, []*vclock.LocalClock) {
	e := sim.NewEngine(spec.Seed)
	w := mpi.NewWorld(e, netsim.New(e, cfg), spec.Placement)
	w.SetComputeModel(cluster.ComputeModel{}) // benchmarks do no compute
	if spec.Faults != nil {
		w.SetFaults(spec.Faults)
	}
	maxOffset, maxSkew, jitter := clockMaxOffset, clockMaxSkew, clockJitter
	if spec.PerfectClocks {
		maxOffset, maxSkew, jitter = 0, 0, 0
	}
	return w, vclock.NewClockSet(e, spec.Placement.NodeCount, maxOffset, maxSkew, jitter)
}

// execute runs program on every rank of w and starts the run's Result:
// what ran where, the network's retry and fault-drop counters and the
// instrument snapshot. The caller adds the measured points.
func execute(cfg cluster.Config, spec Spec, w *mpi.World, program func(c *mpi.Comm)) (*Result, error) {
	w.Launch(program)
	// Unwind rank processes even when the run aborts (deadlock, lint
	// panic): sweeps execute many engines concurrently and must not
	// accumulate parked processes. After a clean Wait this is a no-op.
	defer w.Shutdown()
	if _, err := w.Wait(); err != nil {
		return nil, err
	}
	nc := w.Network().Stats()
	res := &Result{
		Cluster:    cfg.Name,
		Op:         spec.Op,
		Placement:  spec.Placement.String(),
		Procs:      spec.Placement.NumProcs(),
		BinWidth:   spec.BinWidth,
		Retries:    nc.Retries,
		FaultDrops: nc.FaultDrops,
		Metrics:    w.Engine().Metrics().Snapshot(),
	}
	if spec.Faults != nil {
		res.Scenario = spec.Faults.Name
	}
	return res, nil
}

// runBatch executes one simulated benchmark (the fixed-count core Run
// has always had) and additionally returns the raw samples. The spec
// must already have defaults applied and be validated.
func runBatch(cfg cluster.Config, spec Spec) (*Result, *rawRun, error) {
	w, clocks := newWorld(cfg, spec)
	pl := spec.Placement
	procs := pl.NumProcs()

	total := spec.WarmUp + spec.Repetitions
	nSizes := len(spec.Sizes)

	// Raw local-clock readings, converted to global time after the run.
	sendStarts := make([][][]float64, procs)
	recvEnds := make([][][]float64, procs)
	for r := range sendStarts {
		sendStarts[r] = make([][]float64, nSizes)
		recvEnds[r] = make([][]float64, nSizes)
		for s := range sendStarts[r] {
			sendStarts[r][s] = make([]float64, total)
			recvEnds[r][s] = make([]float64, total)
		}
	}
	probes := make([][]vclock.Probe, pl.NodeCount)

	run := newRunner(w, clocks, spec, sendStarts, recvEnds, probes)
	res, err := execute(cfg, spec, w, run.program)
	if err != nil {
		return nil, nil, fmt.Errorf("mpibench: %s on %s: %w", spec.Op, pl, err)
	}

	// Fit one clock correction per node; node 0 holds the reference.
	// SyncResidual keeps the worst fit.
	corr := make([]vclock.Correction, pl.NodeCount)
	for node := 1; node < pl.NodeCount; node++ {
		c, err := vclock.Estimate(probes[node])
		if err != nil {
			return nil, nil, fmt.Errorf("mpibench: syncing node %d: %w", node, err)
		}
		corr[node] = c
		if c.Residual > res.SyncResidual {
			res.SyncResidual = c.Residual
		}
	}

	// Build one histogram per size from the per-operation global times.
	raw := &rawRun{
		samples: make([][]float64, nSizes),
		perRep:  make([][]float64, nSizes),
	}
	half := procs / 2
	for si, size := range spec.Sizes {
		h := stats.NewHistogram(spec.BinWidth)
		var maxH *stats.Histogram
		if !spec.Op.PointToPoint() {
			// Collectives also record the per-repetition slowest rank —
			// the completion of the operation as a whole, measurable
			// only because every rank is timed individually.
			maxH = stats.NewHistogram(spec.BinWidth)
		}
		raw.samples[si] = make([]float64, 0, spec.Repetitions*procs)
		raw.perRep[si] = make([]float64, 0, spec.Repetitions)
		for rep := spec.WarmUp; rep < total; rep++ {
			slowest := 0.0
			repSum, repN := 0.0, 0
			for rank := 0; rank < procs; rank++ {
				myNode := pl.LogicalNode(rank)
				end := corr[myNode].Global(recvEnds[rank][si][rep])
				var begin float64
				if spec.Op.PointToPoint() {
					partner := (rank + half) % procs
					begin = corr[pl.LogicalNode(partner)].Global(sendStarts[partner][si][rep])
				} else {
					begin = corr[myNode].Global(sendStarts[rank][si][rep])
				}
				if d := end - begin; d > 0 {
					h.Add(d)
					raw.samples[si] = append(raw.samples[si], d)
					repSum += d
					repN++
					if d > slowest {
						slowest = d
					}
				}
			}
			if maxH != nil && slowest > 0 {
				maxH.Add(slowest)
			}
			if repN > 0 {
				raw.perRep[si] = append(raw.perRep[si], repSum/float64(repN))
			}
		}
		res.Points = append(res.Points, Point{Size: size, Hist: h, MaxHist: maxH})
		res.Samples = h.Count()
	}
	return res, raw, nil
}

// runner carries the state the per-rank benchmark program needs.
type runner struct {
	w      *mpi.World
	clocks []*vclock.LocalClock
	spec   Spec

	sendStarts, recvEnds [][][]float64
	probes               [][]vclock.Probe
}

func newRunner(w *mpi.World, clocks []*vclock.LocalClock, spec Spec,
	sendStarts, recvEnds [][][]float64, probes [][]vclock.Probe) *runner {
	return &runner{
		w: w, clocks: clocks, spec: spec,
		sendStarts: sendStarts, recvEnds: recvEnds, probes: probes,
	}
}

// read returns the local clock reading of the calling rank's node.
func (run *runner) read(c *mpi.Comm) float64 {
	return run.clocks[run.w.Placement().LogicalNode(c.Rank())].Read(c.Now())
}

// program is what every rank executes: sync, measure, sync again.
func (run *runner) program(c *mpi.Comm) {
	run.syncPhase(c)
	c.Barrier()
	run.measure(c)
	c.Barrier()
	run.syncPhase(c)
}

// syncPhase runs the MPIBench clock synchronisation: the first rank of
// every node exchanges timestamped probes with rank 0 (the reference
// node); pre- and post-run probes combine into one drift-corrected fit.
func (run *runner) syncPhase(c *mpi.Comm) {
	pl := run.w.Placement()
	if c.Rank() == 0 {
		// Serve every probing node, one probe at a time, round-robin.
		// The "go" token keeps the network quiet during each exchange:
		// a client only probes once the server is dedicated to it, so
		// probe paths are symmetric — the property the midpoint offset
		// estimate depends on.
		for round := 0; round < run.spec.SyncProbes; round++ {
			for node := 1; node < pl.NodeCount; node++ {
				client := node * pl.PerNode // first rank on that node
				c.Send(client, tagSyncGo, 1)
				c.Recv(client, tagSyncProbe)
				c.SendData(client, tagSyncReply, 8, run.read(c))
			}
		}
		return
	}
	if pl.SlotOf(c.Rank()) != 0 {
		return // only one rank per node probes; others idle until the barrier
	}
	node := pl.LogicalNode(c.Rank())
	for round := 0; round < run.spec.SyncProbes; round++ {
		c.Recv(0, tagSyncGo)
		t0 := run.read(c)
		c.Send(0, tagSyncProbe, 8)
		st := c.Recv(0, tagSyncReply)
		t1 := run.read(c)
		run.probes[node] = append(run.probes[node], vclock.Probe{
			LocalSend: t0,
			Remote:    st.Data.(float64),
			LocalRecv: t1,
		})
	}
}

// measure runs the benchmark loop for every message size.
func (run *runner) measure(c *mpi.Comm) {
	total := run.spec.WarmUp + run.spec.Repetitions
	for si, size := range run.spec.Sizes {
		c.Barrier()
		for rep := 0; rep < total; rep++ {
			if run.spec.Op.PointToPoint() {
				run.pointToPoint(c, si, size, rep)
			} else {
				run.collective(c, si, size, rep)
			}
		}
	}
}

// pointToPoint measures one pairwise exchange: every rank records when
// it starts its send and when its receive completes; the one-way time of
// each message is reconstructed afterwards on the global clock. The
// pairs realign on a barrier every Spec.BarrierEvery repetitions: the
// mix of aligned bursts (what a data-parallel program produces at
// iteration boundaries) and free-running repetitions (what a pipelined
// program produces) is what makes one set of distributions transfer to
// both kinds of application.
func (run *runner) pointToPoint(c *mpi.Comm, si, size, rep int) {
	if rep%run.spec.BarrierEvery == 0 {
		c.Barrier()
	}
	partner := (c.Rank() + c.Size()/2) % c.Size()
	rr := c.Irecv(partner, tagMeasure)
	run.sendStarts[c.Rank()][si][rep] = run.read(c)
	switch run.spec.Op {
	case OpIsend:
		sr := c.Isend(partner, tagMeasure, size)
		c.Waitall(sr, rr)
		c.Free(sr, rr)
	case OpSend:
		c.Send(partner, tagMeasure, size)
		c.Wait(rr)
		c.Free(rr)
	case OpSendrecv:
		sr := c.Isend(partner, tagMeasure, size)
		c.Waitall(rr, sr)
		c.Free(rr, sr)
	}
	run.recvEnds[c.Rank()][si][rep] = run.read(c)
}

// collective measures one collective operation from entry to per-rank
// completion, with a barrier separating repetitions so entries align.
func (run *runner) collective(c *mpi.Comm, si, size, rep int) {
	c.Barrier()
	run.sendStarts[c.Rank()][si][rep] = run.read(c)
	switch run.spec.Op {
	case OpBarrier:
		c.Barrier()
	case OpBcast:
		c.Bcast(0, size)
	case OpReduce:
		c.Reduce(0, size)
	case OpAllreduce:
		c.Allreduce(size)
	case OpGather:
		c.Gather(0, size)
	case OpScatter:
		c.Scatter(0, size)
	case OpAllgather:
		c.Allgather(size)
	case OpAlltoall:
		c.Alltoall(size)
	}
	run.recvEnds[c.Rank()][si][rep] = run.read(c)
}

// RunSweep benchmarks one op across several placements, returning a Set
// (the performance database for PEVPM). Each placement is an independent
// sweep cell: it builds its own cluster and engine with a seed derived
// from (spec.Seed, cell index), and cells execute across spec.Workers
// goroutines. Results merge into the Set in placement order, so the Set
// is bit-identical for every worker count. (The additive per-cell seed
// derivation predates sim.SubSeed and is kept so recorded figure data
// stays reproducible.)
func RunSweep(cfg cluster.Config, spec Spec, placements []cluster.Placement) (*Set, error) {
	return RunSweepObserved(cfg, spec, placements, nil)
}

// RunSweepObserved is RunSweep that additionally folds every cell's
// instrument snapshot — plus the worker pool's own counters — into agg,
// in placement order on the calling goroutine. Pass nil to skip
// metrics; the benchmark results are identical either way.
func RunSweepObserved(cfg cluster.Config, spec Spec, placements []cluster.Placement, agg *metrics.Aggregate) (*Set, error) {
	return collect(cfg.Name, spec.sweepWorkers(), len(placements), agg, func(i int) (*Result, error) {
		s := spec
		s.Placement = placements[i]
		s.Seed = spec.Seed + uint64(i)*1000003
		return Run(cfg, s)
	})
}

// collect runs n independent benchmark cells on the sweep worker pool
// and adds their results to a Set in cell order, so the Set is
// bit-identical at any worker count. With agg non-nil, every cell's
// instrument snapshot and then the pool's own counters fold into agg
// on the calling goroutine.
func collect(clusterName string, workers, n int, agg *metrics.Aggregate, cell func(i int) (*Result, error)) (*Set, error) {
	var obs *sweep.Observer
	if agg != nil {
		obs = sweep.NewObserver()
	}
	results, err := sweep.MapObserved(workers, n, obs, cell)
	if err != nil {
		return nil, err
	}
	set := &Set{Cluster: clusterName}
	for _, r := range results {
		set.Add(r)
		if agg != nil {
			agg.Merge(r.Metrics)
		}
	}
	if agg != nil {
		agg.Merge(obs.Snapshot())
	}
	return set, nil
}
