package pevpm

import (
	"fmt"
	"sort"

	"repro/internal/mpibench"
	"repro/internal/stats"
)

// PatternDB is the per-pattern performance database: for every
// measured pattern cell, the distribution of the *round completion
// time* (the per-round slowest participant) per message size. Where
// EmpiricalDB prices individual messages under scoreboard contention,
// PatternDB prices whole structured exchanges — the group-to-group
// contention on inter-leaf and inter-group links is baked into the
// measured distribution, which is what makes Dense makespans across
// fabric boundaries predictable at all.
type PatternDB struct {
	Cluster string

	// entries stay sorted by cell key; no map anywhere, so iteration
	// and lookup order are deterministic (the detlint contract).
	entries []cellEntry
}

// cellEntry is one measured cell's round-completion distributions,
// ascending by size and frozen.
type cellEntry struct {
	cell mpibench.PatternCell
	dbEntry
}

// NewPatternDB builds a database from the pattern results of a
// benchmark set, one entry per cell; operation results are skipped.
// Histograms are frozen so concurrent Monte-Carlo evaluations can share
// the database.
func NewPatternDB(set *mpibench.Set) (*PatternDB, error) {
	db := &PatternDB{Cluster: set.Cluster}
	for _, r := range set.Results {
		if r.Pattern == nil {
			continue
		}
		e := cellEntry{cell: *r.Pattern}
		for _, pt := range r.Points {
			if pt.MaxHist == nil || pt.MaxHist.Count() == 0 {
				return nil, fmt.Errorf("pevpm: empty round distribution for %s size %d", r.Pattern, pt.Size)
			}
			e.sizes = append(e.sizes, pt.Size)
			e.hists = append(e.hists, pt.MaxHist)
		}
		if len(e.sizes) == 0 {
			return nil, fmt.Errorf("pevpm: pattern result %s has no sizes", r.Pattern)
		}
		if !sort.IntsAreSorted(e.sizes) {
			sort.Sort(&entryBysize{&e.dbEntry})
		}
		for _, h := range e.hists {
			h.Freeze()
		}
		db.entries = append(db.entries, e)
	}
	if len(db.entries) == 0 {
		return nil, fmt.Errorf("pevpm: result set contains no pattern measurements")
	}
	sort.Slice(db.entries, func(i, j int) bool {
		return db.entries[i].cell.String() < db.entries[j].cell.String()
	})
	return db, nil
}

func (db *PatternDB) entry(cell mpibench.PatternCell) (*dbEntry, error) {
	for i := range db.entries {
		if db.entries[i].cell == cell {
			return &db.entries[i].dbEntry, nil
		}
	}
	return nil, fmt.Errorf("pevpm: pattern %s not in database", cell)
}

// PredictMakespan predicts the makespan of rounds consecutive windowed
// rounds of a pattern at one message size: reps independent Monte-Carlo
// replications each sum rounds draws from the measured round
// distribution, and the Student-t interval over the replication sums is
// the prediction. The caller supplies the RNG (a sim.SubSeed substream)
// so predictions are bit-identical at any worker count.
func (db *PatternDB) PredictMakespan(r stats.Rand, cell mpibench.PatternCell, size, rounds, reps int, level float64) (stats.Interval, error) {
	if rounds <= 0 || reps < 2 {
		return stats.Interval{}, fmt.Errorf("pevpm: predict wants rounds > 0 and reps >= 2, got %d/%d", rounds, reps)
	}
	e, err := db.entry(cell)
	if err != nil {
		return stats.Interval{}, err
	}
	var sum stats.Summary
	for rep := 0; rep < reps; rep++ {
		total := 0.0
		for i := 0; i < rounds; i++ {
			total += e.quantile(size, r.Float64())
		}
		sum.Add(total)
	}
	return stats.StudentCI(sum, level), nil
}
