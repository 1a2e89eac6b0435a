// Sharded execution of the network model: one logical process (LP) per
// leaf switch plus a core LP for the spine/upper levels, running over
// sim.Shards' conservative windows. The per-hop switch forwarding
// latency (Config.SwitchLatency) is the lookahead bound: every
// LP-boundary crossing — a message handed from a leaf into the core, a
// drop notification travelling back to the sender — takes exactly one
// un-jittered switch latency of virtual time, so LPs can execute a full
// lookahead window without ever hearing from each other mid-window.
//
// The partition is fixed by the topology, never by the worker count:
// "shard count" in user-facing flags means worker threads. That is the
// determinism contract — output at 1 worker and at N workers is
// byte-identical because the LP decomposition, per-LP RNG streams and
// barrier merge order are all worker-independent.
//
// The LPs run the same stage pipeline as the serial Network, which is
// its one-LP case. Two things differ: each LP draws loss and jitter from
// its own RNG streams, and every LP crossing on a message's path adds
// one lookahead to its latency.
package netsim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ShardedNet runs one large cluster simulation across LPs.
type ShardedNet struct {
	model
}

// NewSharded builds the sharded network for a hierarchical cluster:
// topo.Leaves leaf LPs plus one core LP, seeded from seed, executed by
// the given worker count (<= 0 means GOMAXPROCS). The configuration
// must carry a topology, and its SwitchLatency must be positive — a
// zero-latency switch hop would be a zero-lookahead cross-shard link,
// which sim.NewShards rejects.
func NewSharded(seed uint64, cfg cluster.Config, workers int) (*ShardedNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo == nil {
		return nil, fmt.Errorf("netsim: sharded execution needs a hierarchical topology (flat %q runs serial)", cfg.Name)
	}
	lookahead := sim.DurationFromSeconds(cfg.SwitchLatency)
	sh, err := sim.NewShards(seed, cfg.Topo.Leaves+1, lookahead, workers)
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, sh.NumLPs())
	for i := range engines {
		engines[i] = sh.LP(i)
	}
	n := &ShardedNet{}
	n.init(cfg, engines)
	n.sh, n.lookahead = sh, lookahead
	return n, nil
}

// NumLPs returns leaf count + 1 (the core).
func (n *ShardedNet) NumLPs() int { return len(n.lps) }

// Windows returns how many synchronisation windows the run executed.
func (n *ShardedNet) Windows() uint64 { return n.sh.Windows() }

// OwnerLP returns the LP that owns a node's state. Driver state for the
// node (send queues, completion records) must live on this LP.
func (n *ShardedNet) OwnerLP(node int) int { return n.nodeLP(node) }

// Engine returns LP i's engine, for drivers to schedule kick-off events
// and timers on.
func (n *ShardedNet) Engine(lp int) *sim.Engine { return n.lps[lp].e }

// SetDeliver installs the delivery handler. It is invoked on the
// destination node's LP, in event context, once per completed transfer.
func (n *ShardedNet) SetDeliver(fn func(srcNode, dstNode, payload int, st TransferStats)) {
	n.deliver = fn
}

// Run executes the sharded simulation to completion and returns the
// makespan (the largest LP clock).
func (n *ShardedNet) Run() (sim.Time, error) { return n.sh.Run() }

// Counters aggregates the per-LP activity counters (sums; MaxStackWait
// is the max).
func (n *ShardedNet) Counters() Counters { return n.sum() }

// MetricsSnapshot merges every LP's registry into one deterministic
// snapshot (counters add, gauges max, histograms add), in LP order.
func (n *ShardedNet) MetricsSnapshot() metrics.Snapshot {
	agg := metrics.NewAggregate()
	for _, l := range n.lps {
		agg.Merge(l.e.Metrics().Snapshot())
	}
	return agg.Snapshot()
}

// Send starts a transfer of payload bytes between two nodes. It must be
// called in the source node's LP event context (schedule via
// Engine(OwnerLP(src))). Completion reaches the SetDeliver handler on
// the destination's LP.
func (n *ShardedNet) Send(srcNode, dstNode, payload int) {
	if n.deliver == nil {
		panic("netsim: ShardedNet.Send before SetDeliver")
	}
	n.transfer(srcNode, dstNode, payload, nil, nil)
}
