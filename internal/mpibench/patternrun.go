package mpibench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunPattern executes one group-to-group pattern benchmark on a freshly
// simulated cluster and returns a Result whose Pattern names the cell.
// Every round is an aligned burst: the participants barrier, post
// window×count receives and sends per matrix pair, and Waitall; the
// round duration is read start-to-finish on each rank's own local
// clock, so clock offsets cancel without a sync phase and only skew
// (<= 50 ppm) and read granularity contribute noise. Each Point holds
// the per-participant round durations (Hist), the per-round slowest
// participant (MaxHist, the pattern's completion and the quantity PEVPM
// predicts), the bytes injected per round and the bandwidth achieved.
func RunPattern(cfg cluster.Config, spec PatternSpec) (*Result, error) {
	spec, err := spec.resolve(&cfg)
	if err != nil {
		return nil, err
	}
	bs := spec.benchSpec()
	w, clocks := newWorld(cfg, bs)

	pl := spec.Placement
	procs := pl.NumProcs()

	// Per-rank pair lists in matrix order; ranks outside every pair just
	// ride the barriers.
	outs := make([][]Pair, procs)
	ins := make([][]Pair, procs)
	participant := make([]bool, procs)
	for _, pr := range spec.Matrix.Pairs {
		outs[pr.Src] = append(outs[pr.Src], pr)
		ins[pr.Dst] = append(ins[pr.Dst], pr)
		participant[pr.Src] = true
		participant[pr.Dst] = true
	}

	total := spec.WarmUp + spec.Rounds
	nSizes := len(spec.Sizes)
	durs := make([][][]float64, procs)
	for r := range durs {
		durs[r] = make([][]float64, nSizes)
		for s := range durs[r] {
			durs[r][s] = make([]float64, total)
		}
	}

	cell := spec.cell()
	res, err := execute(cfg, bs, w, func(c *mpi.Comm) {
		rank := c.Rank()
		read := func() float64 {
			return clocks[pl.LogicalNode(rank)].Read(c.Now())
		}
		var reqs []*mpi.Request
		for si, size := range spec.Sizes {
			for rep := 0; rep < total; rep++ {
				c.Barrier()
				if !participant[rank] {
					continue
				}
				start := read()
				reqs = reqs[:0]
				for _, pr := range ins[rank] {
					for m := 0; m < pr.Count*spec.Window; m++ {
						reqs = append(reqs, c.Irecv(pr.Src, tagMeasure))
					}
				}
				for _, pr := range outs[rank] {
					for m := 0; m < pr.Count*spec.Window; m++ {
						reqs = append(reqs, c.Isend(pr.Dst, tagMeasure, size))
					}
				}
				c.Waitall(reqs...)
				c.Free(reqs...)
				durs[rank][si][rep] = read() - start
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("mpibench: pattern %s on %s: %w", cell, pl, err)
	}
	res.Pattern = &cell
	res.Pairs = len(spec.Matrix.Pairs)
	res.Manifest = newManifest(&cfg, bs)
	res.Manifest.Pattern = &cell
	res.Manifest.Pairs = res.Pairs

	bytesPerRound := spec.Matrix.MessagesPerWindow() * spec.Window
	samples := make([][]float64, nSizes)
	for si, size := range spec.Sizes {
		h := stats.NewHistogram(spec.BinWidth)
		maxH := stats.NewHistogram(spec.BinWidth)
		samples[si] = make([]float64, 0, spec.Rounds*procs)
		for rep := spec.WarmUp; rep < total; rep++ {
			slowest := 0.0
			for rank := 0; rank < procs; rank++ {
				if !participant[rank] {
					continue
				}
				if d := durs[rank][si][rep]; d > 0 {
					h.Add(d)
					samples[si] = append(samples[si], d)
					if d > slowest {
						slowest = d
					}
				}
			}
			if slowest > 0 {
				maxH.Add(slowest)
			}
		}
		pt := Point{
			Size:          size,
			Hist:          h,
			MaxHist:       maxH,
			BytesPerRound: bytesPerRound * size,
		}
		if mean := maxH.Mean(); mean > 0 {
			pt.Bandwidth = float64(pt.BytesPerRound) / mean
		}
		res.Points = append(res.Points, pt)
		res.Samples = h.Count()
	}
	if spec.Estimates {
		attachEstimates(res, samples, bs, estDefaults(bs))
	}
	return res, nil
}

// RunPatternSweep benchmarks every cell of the (p, g, k) × window ×
// direction space on the sweep worker pool and returns the Results in
// a Set. Each cell is an independent simulation whose seed is the
// "pattern:<cell>" substream of the base seed, and results merge in
// cell order, so the sweep is bit-identical at any worker count. With
// agg non-nil, every cell's instrument snapshot — plus the worker
// pool's own counters — folds into agg; pass nil to skip metrics.
func RunPatternSweep(cfg cluster.Config, base PatternSpec, cells []PatternCell, agg *metrics.Aggregate) (*Set, error) {
	base = base.Defaults() // resolve window/direction before cells are keyed
	return collect(cfg.Name, base.sweepWorkers(), len(cells), agg, func(i int) (*Result, error) {
		s := base
		c := cells[i]
		s.Pattern, s.P, s.G, s.K = c.Pattern, c.P, c.G, c.K
		if c.Window > 0 {
			s.Window = c.Window
		}
		if c.Direction != "" {
			s.Direction = c.Direction
		}
		s.Matrix = Matrix{}
		s.Seed = sim.SubSeed(base.Seed, "pattern:"+s.cell().String())
		return RunPattern(cfg, s)
	})
}
