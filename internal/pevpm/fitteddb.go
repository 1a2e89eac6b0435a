package pevpm

import (
	"fmt"
	"slices"

	"repro/internal/stats"
)

// FittedDB is the paper's §2 alternative to raw histograms: "It is also
// possible to use parametrised functions to model the PDFs, based on
// fits to the histograms using standard functions." Each grid point's
// histogram is replaced by its best-fitting parametric distribution
// (shifted lognormal / shifted exponential / Weibull, chosen by KS
// distance), and lookups blend across the same bracketing grid points
// as EmpiricalDB's. Sample draws from each bracketing point's fit
// independently and blends the draws.
//
// A fitted database is far smaller than the histograms it came from and
// smooths bin-granularity noise, at the cost of losing multi-modal
// structure (e.g. detached retransmission-timeout spikes). The
// FitReport says how well each point fit, so callers can keep the
// empirical histogram where the fit is poor.
type FittedDB struct {
	// fit is a copy of the base database whose grid entries carry each
	// point's fitted distribution beside its histogram.
	fit    EmpiricalDB
	report []FitPoint
}

// FitPoint records the quality of one grid point's fit.
type FitPoint struct {
	Placement string
	Size      int
	Family    string
	KS        float64
}

// maxAcceptableKS is the goodness-of-fit bound beyond which FittedDB
// keeps the empirical histogram instead of the parametric fit (a KS
// distance of 0.3 means 30% of probability mass is misplaced — typical
// of a unimodal family forced onto a distribution with an RTO spike).
const maxAcceptableKS = 0.30

// NewFittedDBFrom fits every grid point of an existing empirical
// database. Points whose best fit exceeds the KS bound fall back to
// sampling the underlying histogram.
func NewFittedDBFrom(base *EmpiricalDB) (*FittedDB, error) {
	if base == nil {
		return nil, fmt.Errorf("pevpm: nil base database")
	}
	db := &FittedDB{fit: *base}
	db.fit.grid = db.fitGrid(base.grid, "inter")
	db.fit.intra = db.fitGrid(base.intra, "intra")
	return db, nil
}

// fitGrid copies a grid, giving each entry the fit of every histogram,
// and reports each fit.
func (db *FittedDB) fitGrid(grid []dbEntry, kind string) []dbEntry {
	out := slices.Clone(grid)
	for i := range out {
		e := &out[i]
		e.dists = make([]stats.Dist, len(e.hists))
		for j, h := range e.hists {
			fits := stats.FitBest(h)
			point := FitPoint{
				Placement: fmt.Sprintf("%s-%dprocs", kind, e.procs),
				Size:      e.sizes[j],
			}
			if len(fits) > 0 && fits[0].KS <= maxAcceptableKS {
				e.dists[j] = fits[0].Dist
				point.Family, point.KS = fits[0].Name, fits[0].KS
			} else {
				e.dists[j] = histDist{h}
				point.Family = "empirical-fallback"
				if len(fits) > 0 {
					point.KS = fits[0].KS
				}
			}
			db.report = append(db.report, point)
		}
	}
	return out
}

// Report lists every grid point's chosen family and fit quality.
func (db *FittedDB) Report() []FitPoint {
	out := make([]FitPoint, len(db.report))
	copy(out, db.report)
	return out
}

// Sample draws from the blended fitted distributions. Each of the
// bracketing distributions is sampled with an independent draw and the
// results blended; for the smooth unimodal families this preserves the
// location-scale behaviour the bilinear blend intends.
func (db *FittedDB) Sample(r stats.Rand, size, contention int) float64 {
	return at(db.fit.grid, size, contention, func(d stats.Dist) float64 { return d.Sample(r) })
}

// Mean blends the analytic means.
func (db *FittedDB) Mean(size, contention int) float64 { return db.fit.Mean(size, contention) }

// Min blends the analytic support bounds.
func (db *FittedDB) Min(size, contention int) float64 { return db.fit.Min(size, contention) }

// SampleIntra draws from the fitted intra-node distributions.
func (db *FittedDB) SampleIntra(r stats.Rand, size, contention int) float64 {
	return at(db.fit.intraGrid(), size, contention, func(d stats.Dist) float64 { return d.Sample(r) })
}

// MeanIntra blends the fitted intra-node means.
func (db *FittedDB) MeanIntra(size, contention int) float64 {
	return db.fit.MeanIntra(size, contention)
}

// MinIntra blends the fitted intra-node bounds.
func (db *FittedDB) MinIntra(size, contention int) float64 { return db.fit.MinIntra(size, contention) }

// SendBusy delegates to the machine constants of the base database.
func (db *FittedDB) SendBusy(size int) float64 { return db.fit.SendBusy(size) }

// RecvBusy delegates to the machine constants of the base database.
func (db *FittedDB) RecvBusy(size int) float64 { return db.fit.RecvBusy(size) }

// EagerLimit delegates to the base database.
func (db *FittedDB) EagerLimit() int { return db.fit.EagerLimit() }
