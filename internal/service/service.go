// Package service turns the repro pipeline into a long-running
// prediction server: clients POST a PEVPM model plus a cluster
// description, a seed and prediction options, and get back the
// predicted makespan distribution with confidence intervals, mpilint
// findings, a deterministic metrics snapshot and (optionally) a Chrome
// trace of the predicted timeline.
//
// Production concerns are the feature, and every one of them is built
// on the repository's determinism contract: the response body for a
// given request is a pure function of the request. Same request + seed
// → same bytes, at any worker count, whether the fitted performance
// database came from the cache or was built fresh, and whether the
// response itself was computed or replayed from the response cache.
// That is what makes the service cacheable at every layer (Hunold &
// Carpen-Amarie's reproducibility argument, applied to serving):
//
//   - fitted performance databases are expensive (each is a full
//     MPIBench sweep over the simulated cluster) and are therefore kept
//     in an LRU keyed by (cluster-config hash, benchmark spec,
//     benchmark version); Histogram.Freeze makes the histograms inside
//     shareable read-only across concurrent requests
//   - whole responses are kept in a second LRU keyed by the hash of the
//     canonicalised request, so a repeated request serves without
//     re-running prediction at all
//   - identical requests in flight at the same time coalesce onto one
//     computation (single-flight), so a thundering herd builds each
//     database and each response exactly once
//   - a request runs its Monte-Carlo replications through sweep.Map, and
//     every replication holds one of Workers slots shared by all
//     requests while it evaluates; each derives its RNG stream from the
//     request seed via sim.SubSeed, so scheduling can never change a
//     prediction
//
// The service instruments itself with the internal/metrics registry
// (requests, cache hits/misses, per-stage latency) and exposes the
// snapshot in Prometheus format; those instruments are deliberately
// volatile (wall-clock latencies, cache state) and are never part of a
// response body. See docs/SERVICE.md.
package service

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/mpilint"
)

// Schema versions the request and response layout; bump it when fields
// change meaning so clients and golden replies can refuse mismatches.
const Schema = 1

// BenchVersion fingerprints the benchmark semantics baked into fitted
// performance databases. It is part of every database cache key: bump
// it whenever internal/mpibench changes what a measurement means, so a
// stale cached database can never masquerade as current.
const BenchVersion = 1

// Config sizes the service. The zero value of every field selects the
// default noted on it.
type Config struct {
	// Workers bounds how many Monte-Carlo replications evaluate at once
	// across all requests, and how many cells one request's database
	// build runs at once (0 = GOMAXPROCS).
	Workers int

	// DBCacheSize caps the fitted-performance-database LRU (default 16
	// databases; each holds the frozen histograms of one benchmark
	// sweep).
	DBCacheSize int

	// RespCacheSize caps the whole-response LRU (default 256 bodies).
	RespCacheSize int

	// MaxBodyBytes is the request size limit (default 1 MiB). Requests
	// beyond it are rejected with HTTP 413.
	MaxBodyBytes int64

	// Timeout bounds one request end to end (default 120 s). A request
	// that exceeds it gets HTTP 504; the computation still completes in
	// the background and populates the caches.
	Timeout time.Duration

	// MaxRuns caps Monte-Carlo replications per request (default 512);
	// MaxProcs caps the modelled world size (default 4096). Both bound
	// how long a single request holds the replication slots.
	MaxRuns  int
	MaxProcs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DBCacheSize <= 0 {
		c.DBCacheSize = 16
	}
	if c.RespCacheSize <= 0 {
		c.RespCacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 512
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 4096
	}
	return c
}

// ClusterSpec selects and optionally reshapes the simulated machine.
type ClusterSpec struct {
	// Name picks the base configuration: "perseus" (default) or
	// "myrinet".
	Name string `json:"name,omitempty"`

	// Topology, when non-empty, replaces the flat switch list with a
	// hierarchical fabric via cluster.ParseTopology (e.g.
	// "fattree:128x32x4", "dragonfly:8x4x8+2rail").
	Topology string `json:"topology,omitempty"`
}

// BenchSpec describes the MPIBench sweep that fits the performance
// database backing a prediction. It is part of the database cache key:
// two requests agreeing on cluster and bench spec share one database.
type BenchSpec struct {
	// Op is the benchmarked operation (default MPI_Send).
	Op string `json:"op,omitempty"`

	// Sizes are the measured message sizes (default 0, 256, 1024, 4096
	// bytes).
	Sizes []int `json:"sizes,omitempty"`

	// Placements are the benchmarked n×p configurations, each one
	// contention level of the database (default "1x2", "2x1", "4x1",
	// clamped to the cluster, plus the modelled world's own size).
	Placements []string `json:"placements,omitempty"`

	// Repetitions / WarmUp / SyncProbes mirror mpibench.Spec (defaults
	// 40 / 10 / 8).
	Repetitions int `json:"repetitions,omitempty"`
	WarmUp      int `json:"warmup,omitempty"`
	SyncProbes  int `json:"sync_probes,omitempty"`

	// Seed drives the benchmark simulation (default 1). Distinct from
	// the request seed: many predictions share one measured database.
	Seed uint64 `json:"seed,omitempty"`
}

// Request is the POST /v1/predict body. Unknown fields are rejected.
type Request struct {
	// Model is the PEVPM model source (.pvm directive syntax).
	Model string `json:"model"`

	// Procs is the modelled world size; PerNode how many processes
	// share one SMP node (default 1), which prices intra-node messages
	// from the intra-node distributions.
	Procs   int `json:"procs"`
	PerNode int `json:"per_node,omitempty"`

	// Seed drives all Monte-Carlo randomness. Same request + seed →
	// same response bytes.
	Seed uint64 `json:"seed"`

	// Runs is the number of Monte-Carlo replications (default 20).
	Runs int `json:"runs,omitempty"`

	// Mode selects the paper's prediction variants: "dist" (default,
	// full distributions), "avg-nxp", "avg-2x1", "min-2x1".
	Mode string `json:"mode,omitempty"`

	// Fitted replaces measured histograms with parametric fits (§2's
	// "parametrised functions") before prediction.
	Fitted bool `json:"fitted,omitempty"`

	// Quantile is the quantile whose bootstrap CI the response carries
	// (default 0.5, the median).
	Quantile float64 `json:"quantile,omitempty"`

	// Trace asks for the predicted timeline as an embedded Chrome
	// trace.
	Trace bool `json:"trace,omitempty"`

	Cluster ClusterSpec `json:"cluster,omitempty"`
	Bench   BenchSpec   `json:"bench,omitempty"`
}

// Interval mirrors stats.Interval with stable JSON field names.
type Interval struct {
	Point float64 `json:"point"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
	N     uint64  `json:"n"`
}

// Breakdown is the per-process average attribution of predicted time.
type Breakdown struct {
	Compute  float64 `json:"compute_s"`
	SendBusy float64 `json:"send_busy_s"`
	RecvWait float64 `json:"recv_wait_s"`
}

// HotSpot is one directive's aggregated predicted waiting time.
type HotSpot struct {
	Directive string  `json:"directive"`
	Wait      float64 `json:"wait_s"`
}

// Prediction is the Monte-Carlo makespan distribution summary.
type Prediction struct {
	Runs       int      `json:"runs"`
	Mean       float64  `json:"mean_s"`
	Std        float64  `json:"std_s"`
	Min        float64  `json:"min_s"`
	Max        float64  `json:"max_s"`
	MeanCI     Interval `json:"mean_ci"`
	Quantile   float64  `json:"quantile"`
	QuantileCI Interval `json:"quantile_ci"`

	// Sweeps and Messages come from the detail evaluation (substream
	// "service:detail"), as do Breakdown and HotSpots.
	Sweeps    int       `json:"sweeps"`
	Messages  uint64    `json:"messages"`
	Breakdown Breakdown `json:"breakdown"`
	HotSpots  []HotSpot `json:"hot_spots,omitempty"`

	// metricsSnapshot is the replication-order fold of the per-rep
	// instrument snapshots, rendered into Response.Metrics by encode.
	metricsSnapshot metrics.Snapshot
}

// DBInfo identifies the fitted performance database a prediction drew
// from. Identical whether the database was cached or built for this
// request — cache state never leaks into response bytes.
type DBInfo struct {
	Key          string   `json:"key"`
	BenchVersion int      `json:"bench_version"`
	Op           string   `json:"op"`
	Placements   []string `json:"placements"`
	Sizes        []int    `json:"sizes"`
	Fitted       bool     `json:"fitted"`
}

// LintInfo carries the model's static-analysis verdict.
type LintInfo struct {
	Findings []mpilint.Finding `json:"findings,omitempty"`
	Errors   int               `json:"errors"`
	Warnings int               `json:"warnings"`
}

// Response is the successful prediction reply. Field order is the wire
// order; the body is canonical JSON and byte-stable per request.
type Response struct {
	Schema      int    `json:"schema"`
	RequestHash string `json:"request_hash"`
	Cluster     string `json:"cluster"`
	ClusterHash string `json:"cluster_hash"`
	Topology    string `json:"topology,omitempty"`
	Procs       int    `json:"procs"`
	PerNode     int    `json:"per_node"`
	Mode        string `json:"mode"`
	Seed        uint64 `json:"seed"`

	DB         DBInfo      `json:"db"`
	Lint       LintInfo    `json:"lint"`
	Prediction *Prediction `json:"prediction"`

	// Metrics is the deterministic instrument snapshot of the
	// prediction itself (pevpm draws/sweeps/messages folded in
	// replication order) — not the service's own volatile counters,
	// which live on /metrics.
	Metrics json.RawMessage `json:"metrics,omitempty"`

	// Trace is the detail evaluation's predicted timeline in Chrome
	// trace format, present when the request asked for it.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ErrorResponse is every non-200 JSON body. Deterministic for
// deterministic failures (lint errors, model deadlocks), so error
// replies cache and byte-diff exactly like successes.
type ErrorResponse struct {
	Schema      int               `json:"schema"`
	RequestHash string            `json:"request_hash,omitempty"`
	Error       string            `json:"error"`
	Findings    []mpilint.Finding `json:"findings,omitempty"`
}

// resolve applies defaults in place and validates the request against
// the service limits. The resolved request is what gets canonicalised
// and hashed, so an explicit default and an omitted field key the same
// cache entry.
func (s *Service) resolve(req *Request) error {
	if strings.TrimSpace(req.Model) == "" {
		return fmt.Errorf("model: empty")
	}
	if req.Procs <= 0 {
		return fmt.Errorf("procs: %d (must be positive)", req.Procs)
	}
	if req.Procs > s.cfg.MaxProcs {
		return fmt.Errorf("procs: %d exceeds the service limit %d", req.Procs, s.cfg.MaxProcs)
	}
	if req.PerNode == 0 {
		req.PerNode = 1
	}
	if req.PerNode < 0 {
		return fmt.Errorf("per_node: %d (must be positive)", req.PerNode)
	}
	if req.Runs == 0 {
		req.Runs = 20
	}
	if req.Runs < 0 || req.Runs > s.cfg.MaxRuns {
		return fmt.Errorf("runs: %d outside 1..%d", req.Runs, s.cfg.MaxRuns)
	}
	if req.Mode == "" {
		req.Mode = "dist"
	}
	switch req.Mode {
	case "dist", "avg-nxp", "avg-2x1", "min-2x1":
	default:
		return fmt.Errorf("mode: %q (want dist, avg-nxp, avg-2x1 or min-2x1)", req.Mode)
	}
	if req.Quantile == 0 {
		req.Quantile = 0.5
	}
	if req.Quantile < 0 || req.Quantile >= 1 {
		return fmt.Errorf("quantile: %v outside [0, 1)", req.Quantile)
	}
	if req.Cluster.Name == "" {
		req.Cluster.Name = "perseus"
	}
	switch req.Cluster.Name {
	case "perseus", "myrinet":
	default:
		return fmt.Errorf("cluster.name: %q (want perseus or myrinet)", req.Cluster.Name)
	}
	b := &req.Bench
	if b.Op == "" {
		b.Op = string(mpibench.OpSend)
	}
	if !mpibench.Op(b.Op).Valid() {
		return fmt.Errorf("bench.op: unknown operation %q", b.Op)
	}
	if len(b.Sizes) == 0 {
		b.Sizes = []int{0, 256, 1024, 4096}
	}
	for _, size := range b.Sizes {
		if size < 0 {
			return fmt.Errorf("bench.sizes: negative size %d", size)
		}
	}
	if b.Repetitions == 0 {
		b.Repetitions = 40
	}
	if b.Repetitions < 0 {
		return fmt.Errorf("bench.repetitions: %d", b.Repetitions)
	}
	if b.WarmUp == 0 {
		b.WarmUp = 10
	}
	if b.WarmUp < 0 {
		return fmt.Errorf("bench.warmup: %d", b.WarmUp)
	}
	if b.SyncProbes == 0 {
		b.SyncProbes = 8
	}
	if b.SyncProbes < 4 {
		return fmt.Errorf("bench.sync_probes: %d (need at least 4)", b.SyncProbes)
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	return nil
}

// buildCluster materialises the request's cluster configuration.
func buildCluster(spec ClusterSpec) (cluster.Config, error) {
	var cfg cluster.Config
	switch spec.Name {
	case "perseus":
		cfg = cluster.Perseus()
	case "myrinet":
		cfg = cluster.Myrinet()
	default:
		return cfg, fmt.Errorf("cluster.name: %q", spec.Name)
	}
	if spec.Topology != "" {
		topo, nodes, err := cluster.ParseTopology(spec.Topology)
		if err != nil {
			return cfg, fmt.Errorf("cluster.topology: %w", err)
		}
		cfg, err = cfg.WithTopology(topo, nodes)
		if err != nil {
			return cfg, fmt.Errorf("cluster.topology: %w", err)
		}
	}
	return cfg, nil
}

// defaultPlacements derives the benchmark placements when the request
// does not name them: the intra-node pair (when the nodes are SMP), the
// standard low-contention ladder, and the modelled world's own
// configuration so the database covers the contention level the
// prediction will actually query.
func defaultPlacements(cfg *cluster.Config, procs, perNode int) []string {
	var out []string
	if cfg.CPUsPerNode >= 2 {
		out = append(out, "1x2")
	}
	for _, nodes := range []int{2, 4} {
		if nodes <= cfg.Nodes {
			out = append(out, fmt.Sprintf("%dx1", nodes))
		}
	}
	nodes := (procs + perNode - 1) / perNode
	if nodes*perNode <= cfg.Nodes*cfg.CPUsPerNode && nodes <= cfg.Nodes {
		pl := fmt.Sprintf("%dx%d", nodes, perNode)
		for _, have := range out {
			if have == pl {
				return out
			}
		}
		out = append(out, pl)
	}
	return out
}

// canonical returns the resolved request's canonical encoding — the
// bytes the request hash and the response cache key. Two requests that
// differ only in JSON formatting, key order, or explicitly-written
// default values canonicalise identically.
func canonical(req *Request) []byte {
	data, err := json.Marshal(req)
	if err != nil {
		// Request is a plain struct of scalars and slices; Marshal
		// cannot fail on it today.
		return []byte("unmarshalable")
	}
	return data
}

// fnvHex is FNV-1a over data, hex-encoded — the same fingerprint scheme
// mpibench.ClusterHash uses.
func fnvHex(data []byte) string {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// dbKey builds the database cache key: cluster fingerprint, resolved
// bench spec, fitted flag, and the benchmark semantics version.
func dbKey(clusterHash string, b BenchSpec, placements []string, fitted bool) string {
	spec, _ := json.Marshal(struct {
		B          BenchSpec `json:"b"`
		Placements []string  `json:"p"`
		Fitted     bool      `json:"f"`
		Version    int       `json:"v"`
	}{b, placements, fitted, BenchVersion})
	return clusterHash + "-" + fnvHex(spec)
}

// sortedFindingsCounts fills a LintInfo from analyzer findings.
func lintInfo(findings []mpilint.Finding) LintInfo {
	info := LintInfo{
		Errors:   mpilint.Count(findings, mpilint.SeverityError),
		Warnings: mpilint.Count(findings, mpilint.SeverityWarning),
	}
	if len(findings) > 0 {
		info.Findings = findings
	}
	return info
}
