package pevpm

import (
	"fmt"
	"sort"

	"repro/internal/mpibench"
	"repro/internal/stats"
)

// CollectiveSampler is the optional PerfDB capability behind the
// Collective directive: it prices a whole-job collective operation from
// MPIBench's measured per-rank completion distributions.
type CollectiveSampler interface {
	// SampleCollective draws one process's completion time (relative to
	// the synchronised entry of the whole job) for the operation at the
	// given payload size and job size.
	SampleCollective(r stats.Rand, op string, size, procs int) float64
	// HasCollective reports whether the operation was benchmarked.
	// Evaluate asks it while it holds its Program's plan lock, so it
	// must not evaluate that Program itself.
	HasCollective(op string) bool
}

// CollectiveDB decorates a point-to-point database with collective
// distributions measured by MPIBench (one Result per operation and
// placement in the set).
type CollectiveDB struct {
	PerfDB
	grids map[string][]dbEntry
}

// NewCollectiveDB builds the decorator from every collective result in
// the set; point-to-point and pattern results are skipped. The base
// database continues to price Message directives.
func NewCollectiveDB(base PerfDB, set *mpibench.Set) (*CollectiveDB, error) {
	db := &CollectiveDB{PerfDB: base, grids: make(map[string][]dbEntry)}
	for _, res := range set.Results {
		if res.Op.PointToPoint() || res.Pattern != nil {
			continue
		}
		entry, empty := readEntry(res, slowestRank)
		if empty != nil {
			return nil, fmt.Errorf("pevpm: empty histogram for %s %s size %d",
				res.Op, res.Placement, empty.Size)
		}
		if len(entry.sizes) > 0 {
			db.grids[string(res.Op)] = append(db.grids[string(res.Op)], entry)
		}
	}
	if len(db.grids) == 0 {
		return nil, fmt.Errorf("pevpm: result set contains no collective measurements")
	}
	//detlint:ordered -- each iteration sorts only its own key's grid; no cross-key state
	for _, grid := range db.grids {
		byProcs(grid)
	}
	return db, nil
}

// slowestRank prefers a point's per-instance slowest-rank distribution:
// in an iterative program the whole job waits for the collective to
// finish everywhere, so its gating cost is the instance maximum, not a
// random rank's time.
func slowestRank(pt *mpibench.Point) *stats.Histogram {
	if pt.MaxHist == nil || pt.MaxHist.Count() == 0 {
		return pt.Hist
	}
	return pt.MaxHist
}

// HasCollective reports whether the operation was benchmarked.
func (db *CollectiveDB) HasCollective(op string) bool {
	return len(db.grids[op]) > 0
}

// CollectiveOps lists the benchmarked operations, sorted.
func (db *CollectiveDB) CollectiveOps() []string {
	var out []string
	for op := range db.grids {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// SampleCollective draws from the bilinear blend over (size, procs),
// exactly like point-to-point sampling.
func (db *CollectiveDB) SampleCollective(r stats.Rand, op string, size, procs int) float64 {
	grid := db.grids[op]
	if len(grid) == 0 {
		panic(fmt.Sprintf("pevpm: collective %q not benchmarked", op))
	}
	return quantileAt(grid, size, procs, r.Float64())
}
