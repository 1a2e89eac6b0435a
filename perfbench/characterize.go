package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpibench"
	"repro/internal/sim"
)

// characterize is the MPIBench user's job: an MPI_Isend sweep over the
// paper's Figure 1 and 2 sizes and every block n×1 / n×2 placement.
type characterize struct {
	o     options
	cfg   cluster.Config
	sizes []int
	cells []cluster.Placement
}

// Per-cell measurement density: enough repetitions that every size
// shows its distribution, few enough that a round of all twelve cells
// takes about two CPU seconds.
const (
	charReps       = 20
	charWarmUp     = 5
	charSyncProbes = 10
)

func newCharacterize(o options) bench { return &characterize{o: o} }

// setup builds the cell list and runs one warm-up cell (16×2), so the
// measured phase starts with a grown heap and warm goroutine stacks.
func (c *characterize) setup(tr *tracer) error {
	c.cfg = cluster.Perseus()
	c.sizes = sweepSizes()
	c.cells = nil
	for n := 64; n >= 2; n /= 2 {
		for _, perNode := range []int{2, 1} {
			pl, err := cluster.NewBlockPlacement(&c.cfg, n, perNode)
			if err != nil {
				return err
			}
			c.cells = append(c.cells, pl)
		}
	}
	pl, err := cluster.NewBlockPlacement(&c.cfg, 16, 2)
	if err != nil {
		return err
	}
	id := tr.begin("mpibench.Run", 0, -1)
	res, err := mpibench.Run(c.cfg, c.spec(pl, sim.SubSeed(c.o.seed, "characterize:warmup")))
	tr.end(id, nil)
	if err != nil {
		return err
	}
	return checkCell(res, c.sizes, expectedSamples(pl, charReps))
}

// sweepSizes is Figure1Sizes ∪ Figure2Sizes, ascending.
func sweepSizes() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range append(experiments.Figure1Sizes(), experiments.Figure2Sizes()...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

func (c *characterize) spec(pl cluster.Placement, seed uint64) mpibench.Spec {
	return mpibench.Spec{
		Op: mpibench.OpIsend, Sizes: c.sizes, Placement: pl,
		Repetitions: charReps, WarmUp: charWarmUp, SyncProbes: charSyncProbes, Seed: seed,
	}
}

// expectedSamples is the timing count of one size of a point-to-point
// cell: every rank times one message per repetition.
func expectedSamples(pl cluster.Placement, reps int) uint64 {
	return uint64(pl.NumProcs() * reps)
}

// recordedSamples is the number of timings a result holds, all sizes.
func recordedSamples(res *mpibench.Result) uint64 {
	var n uint64
	for _, pt := range res.Points {
		n += pt.Hist.Count()
	}
	return n
}

// checkCell verifies one cell: every size is present with Samples
// timings (want per size), all finite, and 0 < min ≤ mean ≤ max.
func checkCell(res *mpibench.Result, sizes []int, want uint64) error {
	if res.Samples != want {
		return fmt.Errorf("%s: %d samples per size, want %d", res.Placement, res.Samples, want)
	}
	if len(res.Points) != len(sizes) {
		return fmt.Errorf("%s: %d sizes, want %d", res.Placement, len(res.Points), len(sizes))
	}
	for _, size := range sizes {
		pt, ok := res.PointFor(size)
		if !ok {
			return fmt.Errorf("%s: size %d missing", res.Placement, size)
		}
		if n := pt.Hist.Count(); n != res.Samples {
			return fmt.Errorf("%s %dB: %d timings, want %d", res.Placement, size, n, res.Samples)
		}
		lo, mean, hi := pt.Min(), pt.Avg(), pt.Hist.Max()
		for _, v := range []float64{lo, mean, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s %dB: non-finite timing statistic", res.Placement, size)
			}
		}
		if !(0 < lo && lo <= mean && mean <= hi) {
			return fmt.Errorf("%s %dB: want 0 < min ≤ mean ≤ max, got %g, %g, %g", res.Placement, size, lo, mean, hi)
		}
	}
	return nil
}

func (c *characterize) measure(lim limit, tr *tracer) (*pass, error) {
	p := newPass(lim)
	d := newDigest()
	start, cpu0 := time.Now(), cpuNow()
	rounds := 0
	for r := 0; lim.more(r); r++ {
		round := tr.begin("characterize.round", 0, int64(r))
		var done uint64
		for i, pl := range c.cells {
			id := tr.begin("mpibench.Run", round, int64(r*len(c.cells)+i))
			t0 := p.startCall()
			res, err := mpibench.Run(c.cfg, c.spec(pl, sim.SubSeed(c.o.seed, fmt.Sprintf("characterize:r%d:%s", r, pl))))
			p.stopCall(t0, r)
			if tr != nil && err == nil {
				var cnt counts
				cnt.addSnapshot(res.Metrics)
				tr.end(id, map[string]float64{"samples": float64(recordedSamples(res)),
					"events": float64(cnt.Events), "transfers": float64(cnt.Transfers)})
			} else {
				tr.end(id, nil)
			}
			want := expectedSamples(pl, charReps)
			total := int64(want) * int64(len(c.sizes))
			p.attempted += total
			if err != nil {
				p.fail(total, "round %d %s: %v", r, pl, err)
				continue
			}
			if err := checkCell(res, c.sizes, want); err != nil {
				p.fail(total, "round %d: %v", r, err)
				continue
			}
			n := recordedSamples(res)
			done += n
			p.counts.addSnapshot(res.Metrics)
			p.counts.Samples += n
			p.counts.Adds += n
			if r == 0 || lim.fixed() {
				digestCell(d, res)
			}
		}
		tr.end(round, nil)
		p.roundOps = append(p.roundOps, float64(done))
		rounds++
	}
	p.wall, p.cpu = time.Since(start), cpuNow()-cpu0
	p.digest, p.digestOf = d.sum(), digestScope(lim, rounds, "rounds")
	return p, nil
}

// digestCell hashes every simulated statistic of one cell.
func digestCell(d *digest, res *mpibench.Result) {
	d.str(res.Placement)
	d.float(res.SyncResidual)
	d.num(res.Retries)
	for _, pt := range res.Points {
		d.num(uint64(pt.Size))
		d.num(pt.Hist.Count())
		d.float(pt.Min())
		d.float(pt.Avg())
		d.float(pt.Hist.Max())
		d.float(pt.Hist.Std())
	}
}

func (c *characterize) afterTrace(*tracer, *pass) error { return nil }

func (c *characterize) close() {}
