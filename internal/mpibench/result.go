package mpibench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Point is the measured distribution for one message size.
type Point struct {
	Size int              `json:"size"`
	Hist *stats.Histogram `json:"hist"`

	// MaxHist, present for collective operations and patterns, is the
	// distribution of the per-repetition slowest rank — the completion
	// of the collective (or of the pattern's round) as a whole, which is
	// what gates the next step of an iterative program. Only a benchmark
	// that times every rank individually (the paper's
	// globally-synchronised-clock design) can measure it.
	MaxHist *stats.Histogram `json:"max_hist,omitempty"`

	// BytesPerRound, present for patterns, is the total payload injected
	// per round (sum of pair counts × window × size); Bandwidth divides
	// it by the mean round completion time.
	BytesPerRound int     `json:"bytes_per_round,omitempty"`
	Bandwidth     float64 `json:"bandwidth_bps,omitempty"`

	// Est carries the robust estimators and confidence intervals for
	// this size, present when the spec asked for them (Spec.Estimates
	// or adaptive stopping).
	Est *Estimates `json:"est,omitempty"`
}

// Estimates summarises one size's sample with interval estimates and
// outlier-robust statistics. The mean CI is normal-theory (Student-t);
// the quantile CI is a percentile bootstrap — quantiles of arbitrary
// benchmark distributions have no usable closed-form interval.
type Estimates struct {
	Mean       stats.Interval `json:"mean"`
	Quantile   float64        `json:"quantile"` // which quantile QuantileCI bounds
	QuantileCI stats.Interval `json:"quantile_ci"`

	// Robust location and scale: a handful of retransmission-timeout
	// outliers moves the mean and std, not these.
	Median      float64 `json:"median"`
	TrimmedMean float64 `json:"trimmed_mean"` // 10% cut from each tail
	MAD         float64 `json:"mad"`          // ×1.4826 ≈ robust σ
}

// Min returns the fastest individual operation observed — the paper's
// contention-free bound.
func (p Point) Min() float64 { return p.Hist.Min() }

// Avg returns the mean individual operation time.
func (p Point) Avg() float64 { return p.Hist.Mean() }

// Result is the output of one benchmark run: per-size distributions of
// individual operation times across all processes or, for a
// group-to-group pattern, of every participant's round times.
type Result struct {
	Cluster string `json:"cluster"`
	Op      Op     `json:"op,omitempty"`

	// Pattern, set instead of Op on a pattern result, names the measured
	// cell; Pairs is the pattern matrix's pair count.
	Pattern *PatternCell `json:"pattern,omitempty"`
	Pairs   int          `json:"pairs,omitempty"`

	Placement string  `json:"placement"` // n×p notation, e.g. "64x2"
	Procs     int     `json:"procs"`
	BinWidth  float64 `json:"bin_width"`
	Points    []Point `json:"points"`

	// SyncResidual is the worst clock-fit RMS residual across nodes —
	// the measurement noise floor.
	SyncResidual float64 `json:"sync_residual"`
	// Samples is the number of individual timings per size.
	Samples uint64 `json:"samples"`

	// Scenario names the fault schedule the run executed under (empty
	// for the healthy cluster); Retries and FaultDrops carry the
	// network's retransmission and fault-attributed drop counters so
	// perturbed results explain their own tails.
	Scenario   string `json:"scenario,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	FaultDrops uint64 `json:"fault_drops,omitempty"`

	// Manifest is the reproducibility record: full spec, seed, cluster
	// fingerprint, toolchain and scenario. See manifest.go.
	Manifest Manifest `json:"manifest"`

	// WarmupDrift is the Welch drift statistic of the measured
	// per-repetition series (worst size), computed when estimates are
	// on; DriftFlagged marks it exceeding the configured threshold —
	// the warmup was too short and the measurement is not stationary.
	WarmupDrift  float64 `json:"warmup_drift,omitempty"`
	DriftFlagged bool    `json:"drift_flagged,omitempty"`

	// Metrics is the run's full instrument snapshot (sim kernel, netsim,
	// mpi). Excluded from the saved Set JSON: observability files are
	// exported separately so recorded figure databases stay stable.
	Metrics metrics.Snapshot `json:"-"`
}

// PointFor returns the distribution for an exact message size.
func (r *Result) PointFor(size int) (Point, bool) {
	for _, p := range r.Points {
		if p.Size == size {
			return p, true
		}
	}
	return Point{}, false
}

// Set is a collection of results across operations, placements and
// pattern cells — the "performance database" PEVPM draws from.
type Set struct {
	Cluster string    `json:"cluster"`
	Results []*Result `json:"results"`
}

// Add appends a result, replacing any previous result for the same
// (op, placement) pair or, for a pattern result, the same cell.
func (s *Set) Add(r *Result) {
	for i, old := range s.Results {
		if sameExperiment(old, r) {
			s.Results[i] = r
			return
		}
	}
	s.Results = append(s.Results, r)
}

// sameExperiment reports whether two results measured the same pattern
// cell, or the same operation on the same placement.
func sameExperiment(a, b *Result) bool {
	if a.Pattern != nil || b.Pattern != nil {
		return a.Pattern != nil && b.Pattern != nil && *a.Pattern == *b.Pattern
	}
	return a.Op == b.Op && a.Placement == b.Placement
}

// Find returns the result for an (op, placement) pair.
func (s *Set) Find(op Op, placement string) (*Result, bool) {
	for _, r := range s.Results {
		if r.Op == op && r.Placement == placement {
			return r, true
		}
	}
	return nil, false
}

// Placements lists the distinct placements present for an op, sorted by
// total process count.
func (s *Set) Placements(op Op) []string {
	var out []string
	procs := map[string]int{}
	for _, r := range s.Results {
		if r.Op == op {
			out = append(out, r.Placement)
			procs[r.Placement] = r.Procs
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if procs[out[i]] != procs[out[j]] {
			return procs[out[i]] < procs[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// WriteJSON serialises the set.
func (s *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ReadJSON deserialises a set written by WriteJSON.
func ReadJSON(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("mpibench: decoding result set: %w", err)
	}
	return &s, nil
}

// SaveFile writes the set to a file.
func (s *Set) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a set from a file.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
