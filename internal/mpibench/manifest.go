package mpibench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/cluster"
)

// ManifestSchema versions the manifest layout; bump it when fields
// change meaning so downstream consumers can refuse mismatched files.
const ManifestSchema = 1

// Manifest is the reproducibility record every Result carries: the
// complete spec, the seed, a hash of the cluster configuration, the Go
// toolchain, and the fault scenario. Two results with equal manifests
// came from bit-identical experiments; a result without one is an
// anecdote. ("MPI Benchmarking Revisited" lists unreported experiment
// parameters among the main reasons published MPI measurements cannot
// be reproduced.) A pattern run records its cell and pair count instead
// of an op, and its rounds as Repetitions; it runs no sync probes or
// barrier interval.
type Manifest struct {
	Schema        int          `json:"schema"`
	Op            Op           `json:"op,omitempty"`
	Pattern       *PatternCell `json:"pattern,omitempty"`
	Pairs         int          `json:"pairs,omitempty"`
	Placement     string       `json:"placement"`
	Sizes         []int        `json:"sizes"`
	Repetitions   int          `json:"repetitions"`
	WarmUp        int          `json:"warmup"`
	BinWidth      float64      `json:"bin_width"`
	SyncProbes    int          `json:"sync_probes"`
	BarrierEvery  int          `json:"barrier_every"`
	PerfectClocks bool         `json:"perfect_clocks,omitempty"`
	Seed          uint64       `json:"seed"`

	// Cluster names the simulated machine; ClusterHash fingerprints its
	// full parameter set (an FNV-1a over the canonical JSON encoding),
	// so a recalibrated network model can never masquerade as the same
	// experiment.
	Cluster     string `json:"cluster"`
	ClusterHash string `json:"cluster_hash"`

	// Topology names the hierarchical switch topology, empty for the
	// flat daisy-chained machine. The hash above already covers the
	// topology's full link list; the name is for humans.
	Topology string `json:"topology,omitempty"`

	// GoVersion is the toolchain that produced the result. Floating
	// point in Go is specified, but library-level changes (math, sort)
	// can still move bits between releases.
	GoVersion string `json:"go_version"`

	// Scenario names the fault schedule, empty for a healthy cluster.
	Scenario string `json:"scenario,omitempty"`

	// Adaptive, Batches and StopReason describe the experimental
	// design when adaptive stopping ran: the resolved stopping rule,
	// how many batches executed, and why the run ended
	// (StopTargetMet or StopMaxBatches).
	Adaptive   *Target `json:"adaptive,omitempty"`
	Batches    int     `json:"batches,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
}

// Stop reasons recorded in Manifest.StopReason.
const (
	StopTargetMet  = "target-met"  // every size reached the CI width target
	StopMaxBatches = "max-batches" // the batch cap fired first
)

// newManifest builds the manifest for a (possibly adaptive) run. The
// spec must already have defaults applied.
func newManifest(cfg *cluster.Config, spec Spec) Manifest {
	m := Manifest{
		Schema:        ManifestSchema,
		Op:            spec.Op,
		Placement:     spec.Placement.String(),
		Sizes:         spec.Sizes,
		Repetitions:   spec.Repetitions,
		WarmUp:        spec.WarmUp,
		BinWidth:      spec.BinWidth,
		SyncProbes:    spec.SyncProbes,
		BarrierEvery:  spec.BarrierEvery,
		PerfectClocks: spec.PerfectClocks,
		Seed:          spec.Seed,
		Cluster:       cfg.Name,
		ClusterHash:   ClusterHash(cfg),
		GoVersion:     runtime.Version(),
	}
	if cfg.Topo != nil {
		m.Topology = cfg.Topo.Name
	}
	if spec.Faults != nil {
		m.Scenario = spec.Faults.Name
	}
	return m
}

// ClusterHash fingerprints a cluster configuration: FNV-1a over its
// canonical JSON encoding, hex-encoded. Any parameter change — a link
// rate, a buffer size, a jitter sigma — changes the hash.
func ClusterHash(cfg *cluster.Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain struct of scalars; Marshal cannot fail on
		// it today. Keep the manifest usable if that ever changes.
		return "unhashable"
	}
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}
