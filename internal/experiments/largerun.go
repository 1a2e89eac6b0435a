package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// LargeRunSpec configures one sharded large-cluster run: a windowed
// ring workload (every rank streams fixed-size messages to its right
// neighbour, the neighbour acknowledges each window) over a
// hierarchical topology. The pattern crosses every leaf boundary of
// the machine, which makes it the simplest workload that exercises the
// whole conservative-window machinery — and the one the scale
// acceptance (thousands of nodes, byte-identical at any worker count)
// is measured on.
type LargeRunSpec struct {
	// Topo is a topology spec in cluster.ParseTopology's grammar,
	// e.g. "fattree:2048x32x8" or "dragonfly:8x4x8+2rail".
	Topo string
	// Rounds is how many send windows each rank completes.
	Rounds int
	// Window is how many data messages a rank sends before waiting for
	// the neighbour's acknowledgement.
	Window int
	// Size is the data-message payload in bytes. It must differ from
	// the cluster's CtrlBytes, which the acknowledgements use — the
	// payload length is what tells the two apart at delivery.
	Size int
	Seed uint64
	// Workers is the worker-thread count (0 = GOMAXPROCS). It is an
	// execution detail: every field of the report is byte-identical at
	// any value.
	Workers int
	// Faults optionally degrades the machine for the run.
	Faults *faults.Schedule
}

// LargeRunManifest is the reproducibility record of a large run. Like
// mpibench's manifest it captures everything that determines the
// output — and deliberately not the worker count, which must not.
type LargeRunManifest struct {
	Schema      int    `json:"schema"`
	Pattern     string `json:"pattern"`
	Topology    string `json:"topology"`
	Nodes       int    `json:"nodes"`
	LPs         int    `json:"lps"`
	Rounds      int    `json:"rounds"`
	Window      int    `json:"window"`
	Size        int    `json:"size"`
	Seed        uint64 `json:"seed"`
	Cluster     string `json:"cluster"`
	ClusterHash string `json:"cluster_hash"`
	GoVersion   string `json:"go_version"`
	Scenario    string `json:"scenario,omitempty"`
}

// LargeRunReport is everything a large run produced. Transcript,
// Counters, Metrics and Makespan are all part of the determinism
// contract: byte-identical at every worker count.
type LargeRunReport struct {
	Manifest LargeRunManifest
	// Makespan is the virtual time the last event executed at.
	Makespan sim.Time
	// Windows is how many conservative synchronisation windows the run
	// took (a sharding diagnostic; worker-independent).
	Windows uint64
	// Transcript summarises per-leaf delivery activity in LP order —
	// the value `make determinism` diffs across worker counts.
	Transcript string
	Counters   netsim.Counters
	Metrics    metrics.Snapshot
}

// lrNode is one rank's transcript counters, owned by (and only touched
// on) the rank's leaf LP.
type lrNode struct {
	dataSeen uint64
	ackSeen  uint64
	bytes    uint64
	latency  sim.Duration // summed data-message delivery latency
	last     sim.Time     // latest delivery observed at this rank
}

// LargeRun executes the spec and reports. The worker count never
// changes a byte of the report; everything else in the spec does. It is
// PatternRun's driver fed the ring: pairs r -> r+1 mod n, one message
// per window slot, in rank order.
func LargeRun(spec LargeRunSpec) (*LargeRunReport, error) {
	topo, nodes, err := cluster.ParseTopology(spec.Topo)
	if err != nil {
		return nil, err
	}
	cfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		return nil, err
	}
	if nodes < 2 {
		return nil, fmt.Errorf("largerun: ring needs at least 2 nodes, topology %q has %d", spec.Topo, nodes)
	}
	if err := spec.check("largerun", cfg); err != nil {
		return nil, err
	}
	ring := mpibench.Matrix{Pairs: make([]mpibench.Pair, nodes)}
	for r := range ring.Pairs {
		ring.Pairs[r] = mpibench.Pair{Src: r, Dst: (r + 1) % nodes, Count: 1}
	}
	header := fmt.Sprintf("largerun topo=%s nodes=%d rounds=%d window=%d size=%d seed=%d",
		topo.Name, nodes, spec.Rounds, spec.Window, spec.Size, spec.Seed)
	return windowedRun("largerun", "windowed-ring", header, cfg, ring, spec)
}
