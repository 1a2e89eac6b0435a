package pevpm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/stats"
)

// PerfDB supplies the virtual parallel machine with communication and
// host-overhead costs. The paper's key design point is that OneWay times
// are *distributions* indexed by message size and by the current
// contention level (the number of messages on the scoreboard), measured
// by MPIBench; simplistic prediction modes replace the distribution with
// its average or minimum, which Figure 6 shows to be misleading.
type PerfDB interface {
	// Sample draws a one-way completion time (send start to receive
	// completion) for a message of the given size under the given
	// contention (total messages on the scoreboard).
	Sample(r stats.Rand, size, contention int) float64
	// Mean and Min are the corresponding moments, used by the collapsed
	// prediction modes and for reporting.
	Mean(size, contention int) float64
	Min(size, contention int) float64
	// SampleIntra, MeanIntra and MinIntra are the intra-node (same SMP
	// node) counterparts: those messages never touch the NIC or switch
	// fabric, so they follow a different, much faster distribution —
	// measured by benchmarking a 1×2 placement.
	SampleIntra(r stats.Rand, size, contention int) float64
	MeanIntra(size, contention int) float64
	MinIntra(size, contention int) float64
	// SendBusy is the time the sending process is occupied initiating a
	// send; RecvBusy the time a receiver needs to pick up an
	// already-arrived message.
	SendBusy(size int) float64
	RecvBusy(size int) float64
	// EagerLimit is the size above which a send blocks until delivery
	// (the rendezvous protocol).
	EagerLimit() int
}

// EmpiricalDB interpolates MPIBench measurements: bilinear blending of
// quantile functions across the measured message sizes and process
// counts (contention levels). A single uniform draw is pushed through
// all four bracketing quantile functions, which keeps the blended
// distribution's shape between its neighbours.
type EmpiricalDB struct {
	op    mpibench.Op
	cfg   cluster.Config
	grid  []dbEntry // inter-node configurations, ascending by procs
	intra []dbEntry // intra-node configurations (single-node placements)
}

type dbEntry struct {
	procs int
	sizes []int
	hists []*stats.Histogram
}

// NewEmpiricalDB builds a database from a benchmark result set for one
// operation. Every placement present for the op contributes one
// contention level (its total process count).
func NewEmpiricalDB(set *mpibench.Set, op mpibench.Op, cfg cluster.Config) (*EmpiricalDB, error) {
	db := &EmpiricalDB{op: op, cfg: cfg}
	for _, placement := range set.Placements(op) {
		res, _ := set.Find(op, placement)
		entry := dbEntry{procs: res.Procs}
		for _, pt := range res.Points {
			if pt.Hist == nil || pt.Hist.Count() == 0 {
				return nil, fmt.Errorf("pevpm: empty histogram for %s %s size %d", op, placement, pt.Size)
			}
			entry.sizes = append(entry.sizes, pt.Size)
			entry.hists = append(entry.hists, pt.Hist)
		}
		if len(entry.sizes) == 0 {
			return nil, fmt.Errorf("pevpm: no sizes for %s %s", op, placement)
		}
		if !sort.IntsAreSorted(entry.sizes) {
			sort.Sort(&entryBysize{&entry})
		}
		// Single-node placements benchmark the intra-node (loopback)
		// path: their pairs share a node.
		if pl, err := cluster.ParsePlacement(&cfg, placement); err == nil && pl.NodeCount == 1 {
			db.intra = append(db.intra, entry)
		} else {
			db.grid = append(db.grid, entry)
		}
	}
	if len(db.grid) == 0 {
		return nil, fmt.Errorf("pevpm: result set has no inter-node data for %s", op)
	}
	sort.Slice(db.grid, func(i, j int) bool { return db.grid[i].procs < db.grid[j].procs })
	sort.Slice(db.intra, func(i, j int) bool { return db.intra[i].procs < db.intra[j].procs })
	// Freeze every histogram so sampling is read-only from here on:
	// concurrent Monte-Carlo evaluations share the database.
	freezeEntries(db.grid)
	freezeEntries(db.intra)
	return db, nil
}

func freezeEntries(entries []dbEntry) {
	for _, e := range entries {
		for _, h := range e.hists {
			h.Freeze()
		}
	}
}

type entryBysize struct{ e *dbEntry }

func (s *entryBysize) Len() int           { return len(s.e.sizes) }
func (s *entryBysize) Less(i, j int) bool { return s.e.sizes[i] < s.e.sizes[j] }
func (s *entryBysize) Swap(i, j int) {
	s.e.sizes[i], s.e.sizes[j] = s.e.sizes[j], s.e.sizes[i]
	s.e.hists[i], s.e.hists[j] = s.e.hists[j], s.e.hists[i]
}

// bracket finds indices lo <= hi and a weight w in [0,1] such that value
// sits between xs[lo] and xs[hi] (clamped at the ends). Each size is a
// benchmark, so a database measures a handful: a forward scan, like
// bracketDB's, finds hi sooner than a binary search and its closure.
func bracket(xs []int, value int) (lo, hi int, w float64) {
	if value <= xs[0] {
		return 0, 0, 0
	}
	n := len(xs)
	if value >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	hi = 1
	for xs[hi] < value {
		hi++
	}
	if xs[hi] == value {
		return hi, hi, 0
	}
	lo = hi - 1
	w = float64(value-xs[lo]) / float64(xs[hi]-xs[lo])
	return lo, hi, w
}

func procsList(grid []dbEntry) []int {
	out := make([]int, len(grid))
	for i, e := range grid {
		out[i] = e.procs
	}
	return out
}

// bracketDB is bracket over a grid's procs column. It avoids
// materialising a []int per lookup — at() runs once per Monte-Carlo
// draw, so that throwaway slice dominated the evaluator's allocations.
func bracketDB(grid []dbEntry, value int) (lo, hi int, w float64) {
	if value <= grid[0].procs {
		return 0, 0, 0
	}
	n := len(grid)
	if value >= grid[n-1].procs {
		return n - 1, n - 1, 0
	}
	hi = 1
	for grid[hi].procs < value {
		hi++
	}
	if grid[hi].procs == value {
		return hi, hi, 0
	}
	lo = hi - 1
	w = float64(value-grid[lo].procs) / float64(grid[hi].procs-grid[lo].procs)
	return lo, hi, w
}

// at evaluates f over the four bracketing (procs, size) grid points and
// blends bilinearly. Draws use quantileAt, its closure-free twin.
func at(grid []dbEntry, size, contention int, f func(h *stats.Histogram) float64) float64 {
	pLo, pHi, pw := bracketDB(grid, contention)
	lo := grid[pLo].blend(size, f)
	if pLo == pHi {
		return lo
	}
	return lo*(1-pw) + grid[pHi].blend(size, f)*pw
}

// blend evaluates f at e's sizes bracketing size and interpolates
// linearly between them; quantile is its closure-free twin for draws.
func (e *dbEntry) blend(size int, f func(h *stats.Histogram) float64) float64 {
	sLo, sHi, sw := bracket(e.sizes, size)
	lo := f(e.hists[sLo])
	if sLo == sHi {
		return lo
	}
	return lo*(1-sw) + f(e.hists[sHi])*sw
}

// quantileAt is at with f = Quantile(u), written out so a draw calls
// Quantile directly rather than through a closure. The blend arithmetic
// is at's, in the same order, so draws keep their bits.
//
//detlint:hotpath
func quantileAt(grid []dbEntry, size, contention int, u float64) float64 {
	pLo, pHi, pw := bracketDB(grid, contention)
	lo := grid[pLo].quantile(size, u)
	if pLo == pHi {
		return lo
	}
	return lo*(1-pw) + grid[pHi].quantile(size, u)*pw
}

// quantile blends the quantile functions of e's sizes bracketing size.
//
//detlint:hotpath
func (e *dbEntry) quantile(size int, u float64) float64 {
	sLo, sHi, sw := bracket(e.sizes, size)
	lo := e.hists[sLo].Quantile(u)
	if sLo == sHi {
		return lo
	}
	return lo*(1-sw) + e.hists[sHi].Quantile(u)*sw
}

// Sample draws by blending quantile functions with one shared uniform.
func (db *EmpiricalDB) Sample(r stats.Rand, size, contention int) float64 {
	return quantileAt(db.grid, size, contention, r.Float64())
}

// Mean blends the measured means.
func (db *EmpiricalDB) Mean(size, contention int) float64 {
	return at(db.grid, size, contention, (*stats.Histogram).Mean)
}

// Min blends the measured minima.
func (db *EmpiricalDB) Min(size, contention int) float64 {
	return at(db.grid, size, contention, (*stats.Histogram).Min)
}

// intraGrid returns the grid used for intra-node lookups: the measured
// single-node configurations, or the inter-node grid as a conservative
// fallback when none were benchmarked.
func (db *EmpiricalDB) intraGrid() []dbEntry {
	if len(db.intra) > 0 {
		return db.intra
	}
	return db.grid
}

// SampleIntra draws an intra-node time.
func (db *EmpiricalDB) SampleIntra(r stats.Rand, size, contention int) float64 {
	return quantileAt(db.intraGrid(), size, contention, r.Float64())
}

// MeanIntra blends the intra-node means.
func (db *EmpiricalDB) MeanIntra(size, contention int) float64 {
	return at(db.intraGrid(), size, contention, (*stats.Histogram).Mean)
}

// MinIntra blends the intra-node minima.
func (db *EmpiricalDB) MinIntra(size, contention int) float64 {
	return at(db.intraGrid(), size, contention, (*stats.Histogram).Min)
}

// SendBusy charges the host-side send initiation cost. These constants
// come from the machine description; in the paper's terms they are part
// of the low-level operation submodels.
func (db *EmpiricalDB) SendBusy(size int) float64 {
	return db.cfg.SendOverhead + float64(size)*db.cfg.PerByteCPU
}

// RecvBusy charges the host-side pickup cost of a buffered message.
func (db *EmpiricalDB) RecvBusy(size int) float64 {
	return db.cfg.RecvOverhead + float64(size)*db.cfg.PerByteCPU
}

// EagerLimit mirrors the modelled MPI implementation's protocol switch.
func (db *EmpiricalDB) EagerLimit() int { return db.cfg.EagerLimit }

// Contentions lists the contention levels (process counts) the database
// was measured at.
func (db *EmpiricalDB) Contentions() []int { return procsList(db.grid) }

// Mode selects how a collapsed database summarises a distribution.
type Mode int

// Collapse modes.
const (
	ModeMean Mode = iota // use the distribution's average
	ModeMin              // use the distribution's minimum
)

// collapsedDB replaces every sampled distribution with a single point —
// the paper's "simplistic" prediction modes (dotted lines of Figure 6).
type collapsedDB struct {
	PerfDB
	mode Mode
}

// Collapse wraps a database so sampling returns the mean (ModeMean) or
// minimum (ModeMin) instead of a random draw.
func Collapse(db PerfDB, mode Mode) PerfDB { return &collapsedDB{PerfDB: db, mode: mode} }

func (c *collapsedDB) Sample(_ stats.Rand, size, contention int) float64 {
	if c.mode == ModeMin {
		return c.PerfDB.Min(size, contention)
	}
	return c.PerfDB.Mean(size, contention)
}

func (c *collapsedDB) SampleIntra(_ stats.Rand, size, contention int) float64 {
	if c.mode == ModeMin {
		return c.PerfDB.MinIntra(size, contention)
	}
	return c.PerfDB.MeanIntra(size, contention)
}

// fixedContentionDB pins the contention level, modelling predictions made
// from a single benchmark configuration (e.g. 2×1 ping-pong data).
type fixedContentionDB struct {
	PerfDB
	contention int
}

// FixContention wraps a database so every lookup uses the given
// contention level regardless of the scoreboard.
func FixContention(db PerfDB, contention int) PerfDB {
	return &fixedContentionDB{PerfDB: db, contention: contention}
}

func (f *fixedContentionDB) Sample(r stats.Rand, size, _ int) float64 {
	return f.PerfDB.Sample(r, size, f.contention)
}
func (f *fixedContentionDB) Mean(size, _ int) float64 { return f.PerfDB.Mean(size, f.contention) }
func (f *fixedContentionDB) Min(size, _ int) float64  { return f.PerfDB.Min(size, f.contention) }

// A modeller working only from ping-pong numbers has no intra-node data
// either: the fixed-contention wrapper therefore prices every message,
// intra-node included, from the pinned inter-node configuration.
func (f *fixedContentionDB) SampleIntra(r stats.Rand, size, _ int) float64 {
	return f.PerfDB.Sample(r, size, f.contention)
}
func (f *fixedContentionDB) MeanIntra(size, _ int) float64 { return f.PerfDB.Mean(size, f.contention) }
func (f *fixedContentionDB) MinIntra(size, _ int) float64  { return f.PerfDB.Min(size, f.contention) }

// AnalyticDB is a distribution-free database built from closed-form
// samplers — useful for tests and for modelling hypothetical machines
// (the paper: distributions "can either be theoretical, or empirically
// determined").
type AnalyticDB struct {
	// OneWayFor returns the distribution for a size and contention.
	OneWayFor func(size, contention int) stats.Dist
	// IntraFor returns the intra-node distribution; when nil, intra
	// messages use OneWayFor at contention 2 (an uncontended pair).
	IntraFor func(size, contention int) stats.Dist
	SendCost func(size int) float64
	RecvCost func(size int) float64
	Eager    int
}

func (a *AnalyticDB) intraFor(size, contention int) stats.Dist {
	if a.IntraFor != nil {
		return a.IntraFor(size, contention)
	}
	return a.OneWayFor(size, 2)
}

// Sample draws from the analytic distribution.
func (a *AnalyticDB) Sample(r stats.Rand, size, contention int) float64 {
	return a.OneWayFor(size, contention).Sample(r)
}

// Mean of the analytic distribution.
func (a *AnalyticDB) Mean(size, contention int) float64 {
	return a.OneWayFor(size, contention).Mean()
}

// Min of the analytic distribution.
func (a *AnalyticDB) Min(size, contention int) float64 {
	return a.OneWayFor(size, contention).MinBound()
}

// SampleIntra draws from the intra-node distribution.
func (a *AnalyticDB) SampleIntra(r stats.Rand, size, contention int) float64 {
	return a.intraFor(size, contention).Sample(r)
}

// MeanIntra of the intra-node distribution.
func (a *AnalyticDB) MeanIntra(size, contention int) float64 {
	return a.intraFor(size, contention).Mean()
}

// MinIntra of the intra-node distribution.
func (a *AnalyticDB) MinIntra(size, contention int) float64 {
	return a.intraFor(size, contention).MinBound()
}

// SendBusy returns the host send cost.
func (a *AnalyticDB) SendBusy(size int) float64 { return a.SendCost(size) }

// RecvBusy returns the host receive cost.
func (a *AnalyticDB) RecvBusy(size int) float64 { return a.RecvCost(size) }

// EagerLimit returns the protocol switch size.
func (a *AnalyticDB) EagerLimit() int { return a.Eager }

// LogGPStyleDB builds a simple latency/bandwidth analytic database
// (T = l + b/W with a lognormal contention-scaled spread) for quick
// studies without benchmark data.
func LogGPStyleDB(latency, bandwidth float64, eager int) *AnalyticDB {
	return &AnalyticDB{
		OneWayFor: func(size, contention int) stats.Dist {
			base := latency + float64(size)/bandwidth
			k := float64(contention)
			if k < 2 {
				k = 2
			}
			spread := 0.05 + 0.04*math.Log2(k/2)
			return stats.ShiftedLogNormal{
				Shift: base,
				Mu:    math.Log(base * spread),
				Sigma: 0.6,
			}
		},
		SendCost: func(size int) float64 { return latency / 4 },
		RecvCost: func(size int) float64 { return latency / 4 },
		Eager:    eager,
	}
}
