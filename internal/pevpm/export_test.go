package pevpm

import (
	"repro/internal/mpibench"
	"repro/internal/stats"
)

// The pattern database's per-cell lookups, which only the database pin
// (TestPatternDBPin) reads the draws through; PredictMakespan makes the
// same draws internally.

// Keys lists the measured pattern cells in deterministic order.
func (db *PatternDB) Keys() []mpibench.PatternCell {
	out := make([]mpibench.PatternCell, len(db.entries))
	for i, e := range db.entries {
		out[i] = e.cell
	}
	return out
}

// SampleRound draws one round-completion time for a pattern at a
// message size, blending the bracketing measured sizes' quantile
// functions with a single shared uniform (the EmpiricalDB scheme).
func (db *PatternDB) SampleRound(r stats.Rand, cell mpibench.PatternCell, size int) (float64, error) {
	e, err := db.entry(cell)
	if err != nil {
		return 0, err
	}
	return e.quantile(size, r.Float64()), nil
}

// MeanRound blends the measured mean round-completion times.
func (db *PatternDB) MeanRound(cell mpibench.PatternCell, size int) (float64, error) {
	e, err := db.entry(cell)
	if err != nil {
		return 0, err
	}
	return e.blend(size, (*stats.Histogram).Mean), nil
}
