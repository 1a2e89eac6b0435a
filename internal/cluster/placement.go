package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Placement maps MPI ranks onto cluster nodes using the paper's n×p
// notation: n nodes with p processes each. Ranks fill nodes in blocks
// (ranks 0..p-1 on the first node, and so on), as MPICH's machinefile
// assigns consecutive slots.
//
// Which physical nodes a job receives is a separate question. On a
// shared cluster like Perseus the batch scheduler hands out whatever
// nodes are free, so a job's nodes are scattered across switches —
// logically adjacent ranks are not physically adjacent. NewPlacement
// therefore spreads the job round-robin over the switches (the canonical
// layout, and the one under which benchmark distributions transfer to
// applications); NewBlockPlacement packs nodes in physical order for
// ablation studies of placement locality.
type Placement struct {
	NodeCount int // n — number of nodes used
	PerNode   int // p — processes per node

	// nodes maps the job's logical node index to a physical node. When
	// nil (a Placement built by literal), the identity/block mapping is
	// used.
	nodes []int
}

// NewPlacement builds an n×p placement, validating against the config.
//
// On a flat machine the job's nodes are scattered round-robin across
// the switches, modelling a shared batch queue. On a hierarchical
// topology that heuristic is a trap: dealing node i to switch i%s puts
// every pair of adjacent ranks on different leaves, driving all traffic
// across the bisection. There the placement fills leaf switches first
// (consecutive logical nodes share a leaf), the layout schedulers with
// topology awareness produce and the one locality studies assume.
func NewPlacement(cfg *Config, nodes, perNode int) (Placement, error) {
	pl, err := NewBlockPlacement(cfg, nodes, perNode)
	if err != nil {
		return pl, err
	}
	if cfg.Topo != nil {
		// Physical node n already attaches to leaf n/LeafPorts, so the
		// identity mapping is exactly leaf-first fill.
		return pl, nil
	}
	s := cfg.NumSwitches()
	pl.nodes = make([]int, nodes)
	for i := range pl.nodes {
		phys := (i%s)*cfg.PortsPerSwitch + i/s
		if phys >= cfg.Nodes {
			// A machine with a partially filled last switch: fall back
			// to dealing the remainder in block order.
			phys = i
		}
		pl.nodes[i] = phys
	}
	return pl, nil
}

// NewBlockPlacement builds an n×p placement on physically consecutive
// nodes (logical node i = physical node i).
func NewBlockPlacement(cfg *Config, nodes, perNode int) (Placement, error) {
	pl := Placement{NodeCount: nodes, PerNode: perNode}
	if nodes <= 0 || perNode <= 0 {
		return pl, fmt.Errorf("cluster: invalid placement %dx%d", nodes, perNode)
	}
	if nodes > cfg.Nodes {
		return pl, fmt.Errorf("cluster %q: placement needs %d nodes, machine has %d",
			cfg.Name, nodes, cfg.Nodes)
	}
	if perNode > cfg.CPUsPerNode {
		return pl, fmt.Errorf("cluster %q: placement puts %d processes per node, node has %d CPUs",
			cfg.Name, perNode, cfg.CPUsPerNode)
	}
	return pl, nil
}

// ParsePlacement parses the paper's "NxP" notation (e.g. "64x2").
func ParsePlacement(cfg *Config, s string) (Placement, error) {
	lo := strings.ToLower(s)
	parts := strings.Split(lo, "x")
	if len(parts) != 2 {
		return Placement{}, fmt.Errorf("cluster: placement %q is not of the form NxP", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: placement %q: %v", s, err)
	}
	p, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return Placement{}, fmt.Errorf("cluster: placement %q: %v", s, err)
	}
	return NewPlacement(cfg, n, p)
}

// String renders the placement in n×p notation.
func (p Placement) String() string { return fmt.Sprintf("%dx%d", p.NodeCount, p.PerNode) }

// NumProcs returns the total process count n·p.
func (p Placement) NumProcs() int { return p.NodeCount * p.PerNode }

// NodeOf returns the physical node hosting the given rank.
func (p Placement) NodeOf(rank int) int {
	if rank < 0 || rank >= p.NumProcs() {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, p.NumProcs()))
	}
	logical := rank / p.PerNode
	if p.nodes == nil {
		return logical
	}
	return p.nodes[logical]
}

// LogicalNode returns the rank's job-local node index (0..NodeCount-1),
// independent of which physical node it landed on. Per-node state that
// a job allocates (clocks, counters) indexes by logical node.
func (p Placement) LogicalNode(rank int) int {
	if rank < 0 || rank >= p.NumProcs() {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, p.NumProcs()))
	}
	return rank / p.PerNode
}

// SlotOf returns the CPU slot of the rank within its node.
func (p Placement) SlotOf(rank int) int {
	if rank < 0 || rank >= p.NumProcs() {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, p.NumProcs()))
	}
	return rank % p.PerNode
}
