// Package cluster describes the machines that the simulated MPI library,
// MPIBench and PEVPM run against: node/switch topology, link and
// backplane capacities, protocol constants and compute-cost models.
//
// The stock configuration, Perseus, reproduces the cluster the paper
// measured: 116 dual-CPU nodes on switched 100 Mbit/s Fast Ethernet,
// five 24-port switches joined by stacking matrix cards with 2.1 Gbit/s
// of backplane bandwidth, running MPICH 1.2.0 over TCP.
package cluster

import (
	"fmt"
	"math"
)

// Config describes one cluster. All rates are bits per second, times are
// seconds and sizes are bytes; the network simulator converts to virtual
// nanoseconds internally.
type Config struct {
	Name string

	// Topology.
	Nodes          int // number of compute nodes
	CPUsPerNode    int // processes a node can host without oversubscription
	PortsPerSwitch int // nodes attached to each switch

	// MaxSwitches caps how many switches the flat (daisy-chained)
	// machine physically has; 0 means the chassis count is unknown and
	// switches are derived from the node count. Perseus has five
	// switches, so its port capacity is 5×24 = 120 nodes: node counts
	// beyond that used to silently conjure extra switches.
	MaxSwitches int `json:",omitempty"`

	// Topo, when non-nil, replaces the flat switch list with a
	// hierarchical fabric (fat-tree, dragonfly, arbitrary switch tree).
	// PortsPerSwitch must equal Topo.LeafPorts and Nodes must fit the
	// topology's leaf capacity.
	Topo *Topology `json:",omitempty"`

	// Link layer.
	LinkRate      float64 // node NIC rate, full duplex (bits/s)
	MTU           int     // TCP payload bytes per Ethernet frame
	FrameOverhead int     // extra on-wire bytes per frame (eth+IP+TCP+preamble+IFG)
	MinFrame      int     // smallest on-wire frame (bytes)

	// Switch fabric.
	SwitchLatency  float64 // per-hop forwarding latency (s)
	StackRate      float64 // switch fabric / stacking backplane rate (bits/s)
	FabricPerFrame float64 // shared forwarding-engine time per frame (s)
	// FabricJitter is the coefficient of variation of a fabric/backplane
	// stage's service time (lookup and buffer-management variance). It
	// is what turns high utilisation into real queueing: deterministic
	// servers pipeline perfectly, real ones do not.
	FabricJitter float64

	// Host software stack (MPICH/TCP era constants).
	SendOverhead float64 // CPU time to initiate a send (s)
	RecvOverhead float64 // CPU time to complete a receive (s)
	PerByteCPU   float64 // copy cost per byte on each host (s/byte)
	JitterSigma  float64 // lognormal sigma applied to host overheads
	SpikeProb    float64 // probability of an OS scheduling spike per op
	SpikeMin     float64 // spike duration bounds (s)
	SpikeMax     float64

	// Intra-node transport. MPICH 1.2.0's ch_p4 device moved intra-node
	// messages over TCP loopback unless built for shared memory, so this
	// path is far cheaper than the wire but not memcpy-fast.
	MemLatency float64 // fixed cost of an intra-node message (s)
	MemRate    float64 // intra-node stream bandwidth (bits/s)

	// Loss and retransmission (TCP behaviour under congestion).
	NICBufferBytes   int     // per-port buffering before drops begin
	StackBufferBytes int     // backplane buffering before drops begin
	MaxDropProb      float64 // ceiling on per-message drop probability
	RTO              float64 // initial TCP retransmission timeout (s)
	RTOBackoff       float64 // multiplier per successive retransmission
	MaxRetries       int     // give-up bound (a sim failsafe; TCP retries longer)

	// MPI protocol.
	EagerLimit int // messages at or below this use the eager protocol (bytes)
	CtrlBytes  int // size of RTS/CTS control messages (bytes)
}

// Perseus returns the configuration of the cluster measured in the paper,
// calibrated so the simulated network reproduces the paper's observations
// (§5 of DESIGN.md): ~90 µs contention-free latency, ~81 Mbit/s goodput
// between two processes at 16 KB, the MPICH eager/rendezvous knee at
// 16 KB, and backplane saturation near 2.1 Gbit/s of offered load.
func Perseus() Config {
	return Config{
		Name:           "perseus",
		Nodes:          116,
		CPUsPerNode:    2,
		PortsPerSwitch: 24,

		LinkRate:      100e6,
		MTU:           1460,
		FrameOverhead: 78, // 40 TCP/IP + 18 eth + 20 preamble/IFG
		MinFrame:      84,

		SwitchLatency:  10e-6,
		StackRate:      2.1e9,
		FabricPerFrame: 6e-6, // ~160k frames/s forwarding engine
		FabricJitter:   0.5,

		SendOverhead: 28e-6,
		RecvOverhead: 28e-6,
		PerByteCPU:   2.2e-9, // ~450 MB/s host copy
		JitterSigma:  0.06,
		SpikeProb:    0.0015,
		SpikeMin:     150e-6,
		SpikeMax:     1500e-6,

		MemLatency: 45e-6, // TCP loopback round through the kernel
		MemRate:    800e6, // ~100 MB/s loopback stream on a 500 MHz P3

		NICBufferBytes:   262144,
		StackBufferBytes: 524288, // ≈2 ms of fabric backlog before drops begin
		MaxDropProb:      0.9,
		RTO:              0.2,
		RTOBackoff:       2,
		MaxRetries:       12,

		EagerLimit: 16384,
		CtrlBytes:  64,

		MaxSwitches: 5,
	}
}

// Validate reports the first inconsistency in the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %q: Nodes = %d", c.Name, c.Nodes)
	case c.CPUsPerNode <= 0:
		return fmt.Errorf("cluster %q: CPUsPerNode = %d", c.Name, c.CPUsPerNode)
	case c.PortsPerSwitch <= 0:
		return fmt.Errorf("cluster %q: PortsPerSwitch = %d", c.Name, c.PortsPerSwitch)
	case c.LinkRate <= 0 || c.StackRate <= 0 || c.MemRate <= 0:
		return fmt.Errorf("cluster %q: non-positive rate", c.Name)
	case c.FabricPerFrame < 0:
		return fmt.Errorf("cluster %q: FabricPerFrame = %v", c.Name, c.FabricPerFrame)
	case c.FabricJitter < 0:
		return fmt.Errorf("cluster %q: FabricJitter = %v", c.Name, c.FabricJitter)
	case c.MTU <= 0 || c.FrameOverhead < 0 || c.MinFrame <= 0:
		return fmt.Errorf("cluster %q: bad framing constants", c.Name)
	case c.EagerLimit < 0 || c.CtrlBytes <= 0:
		return fmt.Errorf("cluster %q: bad protocol constants", c.Name)
	case c.RTO <= 0 || c.RTOBackoff < 1 || c.MaxRetries <= 0:
		return fmt.Errorf("cluster %q: bad retransmission constants", c.Name)
	case c.MaxDropProb < 0 || c.MaxDropProb > 1:
		return fmt.Errorf("cluster %q: MaxDropProb = %v", c.Name, c.MaxDropProb)
	}
	if c.Topo != nil {
		if err := c.Topo.Validate(); err != nil {
			return fmt.Errorf("cluster %q: %w", c.Name, err)
		}
		if c.PortsPerSwitch != c.Topo.LeafPorts {
			return fmt.Errorf("cluster %q: PortsPerSwitch = %d but topology leaves have %d ports",
				c.Name, c.PortsPerSwitch, c.Topo.LeafPorts)
		}
		if ports := c.Topo.Capacity(); c.Nodes > ports {
			return fmt.Errorf("cluster %q: %d nodes oversubscribe topology %q (%d leaves × %d ports = %d node ports)",
				c.Name, c.Nodes, c.Topo.Name, c.Topo.Leaves, c.Topo.LeafPorts, ports)
		}
		return nil
	}
	if c.MaxSwitches > 0 {
		if ports := c.MaxSwitches * c.PortsPerSwitch; c.Nodes > ports {
			return fmt.Errorf("cluster %q: %d nodes oversubscribe the machine (%d switches × %d ports = %d node ports)",
				c.Name, c.Nodes, c.MaxSwitches, c.PortsPerSwitch, ports)
		}
	}
	return nil
}

// NumSwitches returns how many switches the machine has: every switch
// of the hierarchical topology when one is set, otherwise as many flat
// switches as the node count requires.
func (c *Config) NumSwitches() int {
	if c.Topo != nil {
		return c.Topo.Switches
	}
	return (c.Nodes + c.PortsPerSwitch - 1) / c.PortsPerSwitch
}

// NumSegments returns how many inter-switch channels the machine has:
// the topology's links, or the flat daisy-chain's switch-to-switch
// stacking segments. Fault rules of kind BackplaneDegrade target these
// by index.
func (c *Config) NumSegments() int {
	if c.Topo != nil {
		return c.Topo.NumSegments()
	}
	return c.NumSwitches() - 1
}

// Rails returns how many parallel NIC rails each node drives (1 unless
// a multi-rail topology is configured).
func (c *Config) Rails() int {
	if c.Topo != nil && c.Topo.Rails > 1 {
		return c.Topo.Rails
	}
	return 1
}

// WireBytes returns the bytes actually put on the wire for a TCP payload
// of the given size, accounting for per-frame framing overhead. This is
// the "3.25 Mbit/s of Ethernet framing overhead" the paper adds on top of
// 81 Mbit/s of goodput.
func (c *Config) WireBytes(payload int) int {
	if payload <= 0 {
		return c.MinFrame
	}
	frames := (payload + c.MTU - 1) / c.MTU
	return payload + frames*c.FrameOverhead
}

// FrameTime returns the seconds one on-the-wire frame of the given
// payload occupies a link, used for store-and-forward offsets.
func (c *Config) FrameTime(payload int) float64 {
	if payload > c.MTU {
		payload = c.MTU
	}
	return float64(c.WireBytes(payload)) * 8 / c.LinkRate
}

// Frames returns how many Ethernet frames carry a payload.
func (c *Config) Frames(payload int) int {
	if payload <= 0 {
		return 1
	}
	return (payload + c.MTU - 1) / c.MTU
}

// FabricService returns the time a message occupies a backplane-speed
// stage: its bits at the stack rate plus the forwarding engine's
// per-frame processing. The per-frame term is what makes synchronized
// bursts of small messages queue up, the paper's Figure 1 effect.
func (c *Config) FabricService(payload int) float64 {
	return float64(c.WireBytes(payload))*8/c.StackRate + float64(c.Frames(payload))*c.FabricPerFrame
}

// NICBufferDelay returns the backlog (in seconds of link time) at which a
// NIC port's buffers overflow and drops begin.
func (c *Config) NICBufferDelay() float64 {
	return float64(c.NICBufferBytes) * 8 / c.LinkRate
}

// StackBufferDelay is the analogous threshold for the backplane.
func (c *Config) StackBufferDelay() float64 {
	return float64(c.StackBufferBytes) * 8 / c.StackRate
}

// DropProb maps a resource backlog (seconds) and its overflow threshold
// to a per-message drop probability: zero below the threshold, then
// rising linearly to MaxDropProb at three times the threshold.
func (c *Config) DropProb(backlog, threshold float64) float64 {
	if backlog <= threshold {
		return 0
	}
	p := (backlog - threshold) / (2 * threshold)
	return math.Min(p, c.MaxDropProb)
}
