package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology describes a hierarchical switch fabric: leaf switches that
// host compute nodes, optional upper switching levels (spines, group
// routers), the links joining them, and the number of parallel NIC
// rails each node drives. A Config with a nil Topo keeps the flat
// daisy-chained shape of the paper's Perseus cluster; a non-nil Topo
// replaces the stacking-backplane chain with an arbitrary switch graph
// whose edges are independently serialised channels.
//
// Switch numbering: leaves are switches 0..Leaves-1 (node n attaches to
// leaf n/LeafPorts); upper-level switches follow. Every link is an
// entry in Links and doubles as a fault-injection target: a
// faults.BackplaneDegrade rule's segment index is an index into Links.
//
// Routing is static and deterministic: the hop sequence for every
// ordered leaf pair is precomputed by the generator, so the same
// (topology, src, dst) triple always takes the same path and simulated
// results never depend on evaluation order.
type Topology struct {
	Name      string `json:"name"`
	Leaves    int    `json:"leaves"`     // leaf switches (nodes attach here)
	LeafPorts int    `json:"leaf_ports"` // node ports per leaf switch
	Switches  int    `json:"switches"`   // total switches, leaves included
	Rails     int    `json:"rails"`      // parallel NIC rails per node (>= 1)
	Links     []Link `json:"links"`

	// paths holds the encoded hop sequence for every ordered leaf pair
	// (index src*Leaves+dst): entries >= 0 are link indices, entries
	// < 0 are switch fabrics encoded as ^switchID. Paths start with the
	// ingress leaf fabric and end with the egress leaf fabric (a
	// same-leaf path is just the one fabric hop).
	paths [][]int32
}

// Link is one inter-switch channel. Rate 0 means the cluster's
// StackRate applies.
type Link struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Rate float64 `json:"rate,omitempty"`
}

// Size bounds of a generated topology. The path table holds one path per
// ordered leaf pair, so its memory and build time grow with the square of
// the leaf count: fattree:2048x1x1 (2048 leaves) allocated 201 MB in
// 0.34 s. The network model allocates NIC state per node and rail. Every
// generator checks these bounds before it allocates, with arithmetic
// that cannot overflow. The largest spec in the repository has 64 leaves
// and 2048 nodes.
const (
	MaxTopoLeaves   = 256
	MaxTopoSwitches = 1024
	MaxTopoLinks    = 16384
	MaxTopoNodes    = 65536
	MaxTopoRails    = 16
)

// checkRails rejects a rail count outside [1, MaxTopoRails].
func checkRails(kind string, rails int) error {
	if rails < 1 || rails > MaxTopoRails {
		return fmt.Errorf("cluster: %s rail count %d (want 1..%d)", kind, rails, MaxTopoRails)
	}
	return nil
}

// tooBig reports a count over its bound.
func tooBig(kind, what string, limit int) error {
	return fmt.Errorf("cluster: %s has more than %d %s", kind, limit, what)
}

// FabricHop encodes switch s as a negative path entry.
func FabricHop(s int) int32 { return int32(^s) }

// IsFabricHop reports whether an encoded hop is a switch fabric, and
// which one.
func IsFabricHop(h int32) (sw int, ok bool) {
	if h < 0 {
		return int(^h), true
	}
	return 0, false
}

// NumSegments returns how many inter-switch links the topology has.
func (t *Topology) NumSegments() int { return len(t.Links) }

// Capacity returns the number of node ports the leaves provide.
func (t *Topology) Capacity() int { return t.Leaves * t.LeafPorts }

// PathHops returns the encoded hop sequence between two leaves. The
// returned slice is shared and must not be modified.
func (t *Topology) PathHops(srcLeaf, dstLeaf int) []int32 {
	return t.paths[srcLeaf*t.Leaves+dstLeaf]
}

// Validate reports the first inconsistency in the topology.
func (t *Topology) Validate() error {
	switch {
	case t.Leaves <= 0:
		return fmt.Errorf("topology %q: Leaves = %d", t.Name, t.Leaves)
	case t.LeafPorts <= 0:
		return fmt.Errorf("topology %q: LeafPorts = %d", t.Name, t.LeafPorts)
	case t.Switches < t.Leaves:
		return fmt.Errorf("topology %q: Switches = %d < Leaves = %d", t.Name, t.Switches, t.Leaves)
	case t.Rails < 1:
		return fmt.Errorf("topology %q: Rails = %d", t.Name, t.Rails)
	}
	for i, l := range t.Links {
		if l.A < 0 || l.A >= t.Switches || l.B < 0 || l.B >= t.Switches || l.A == l.B {
			return fmt.Errorf("topology %q: link %d joins switches %d and %d (have %d switches)",
				t.Name, i, l.A, l.B, t.Switches)
		}
		if l.Rate < 0 {
			return fmt.Errorf("topology %q: link %d rate %v", t.Name, i, l.Rate)
		}
	}
	if len(t.paths) != t.Leaves*t.Leaves {
		return fmt.Errorf("topology %q: %d precomputed paths for %d leaf pairs",
			t.Name, len(t.paths), t.Leaves*t.Leaves)
	}
	for src := 0; src < t.Leaves; src++ {
		for dst := 0; dst < t.Leaves; dst++ {
			p := t.paths[src*t.Leaves+dst]
			if len(p) == 0 {
				return fmt.Errorf("topology %q: no path from leaf %d to leaf %d", t.Name, src, dst)
			}
			if p[0] != FabricHop(src) || p[len(p)-1] != FabricHop(dst) {
				return fmt.Errorf("topology %q: path %d->%d does not start/end at its leaf fabrics",
					t.Name, src, dst)
			}
			for _, h := range p {
				if h >= 0 && int(h) >= len(t.Links) {
					return fmt.Errorf("topology %q: path %d->%d uses link %d of %d",
						t.Name, src, dst, h, len(t.Links))
				}
				if sw, ok := IsFabricHop(h); ok && sw >= t.Switches {
					return fmt.Errorf("topology %q: path %d->%d crosses switch %d of %d",
						t.Name, src, dst, sw, t.Switches)
				}
			}
		}
	}
	return nil
}

// FatTree builds a two-level folded-Clos ("leaf/spine") fabric for the
// given node count: ceil(nodes/leafPorts) leaf switches, each wired to
// every one of the spines by its own link. Routing is deterministic
// D-mod: the spine for an ordered leaf pair (a, b) is (a+b) mod spines,
// which spreads distinct flows across spines while keeping every
// (src, dst) pair on a fixed path.
func FatTree(nodes, leafPorts, spines, rails int) (*Topology, error) {
	if nodes <= 0 || leafPorts <= 0 || spines <= 0 {
		return nil, fmt.Errorf("cluster: fat-tree %dx%dx%d invalid", nodes, leafPorts, spines)
	}
	if err := checkRails("fat-tree", rails); err != nil {
		return nil, err
	}
	kind := fmt.Sprintf("fat-tree %dx%dx%d", nodes, leafPorts, spines)
	if nodes > MaxTopoNodes {
		return nil, tooBig(kind, "nodes", MaxTopoNodes)
	}
	leaves := (nodes-1)/leafPorts + 1
	switch {
	case leaves > MaxTopoLeaves:
		return nil, tooBig(kind, "leaf switches", MaxTopoLeaves)
	case spines > MaxTopoSwitches-leaves:
		return nil, tooBig(kind, "switches", MaxTopoSwitches)
	case leaves*spines > MaxTopoLinks:
		return nil, tooBig(kind, "links", MaxTopoLinks)
	}
	t := &Topology{
		Name:      fmt.Sprintf("fattree-%dx%dx%d", nodes, leafPorts, spines),
		Leaves:    leaves,
		LeafPorts: leafPorts,
		Switches:  leaves + spines,
		Rails:     rails,
	}
	// Link l*spines+s joins leaf l and spine s.
	t.Links = make([]Link, 0, leaves*spines)
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			t.Links = append(t.Links, Link{A: l, B: leaves + s})
		}
	}
	t.paths = make([][]int32, leaves*leaves)
	for a := 0; a < leaves; a++ {
		for b := 0; b < leaves; b++ {
			if a == b {
				t.paths[a*leaves+b] = []int32{FabricHop(a)}
				continue
			}
			s := (a + b) % spines
			t.paths[a*leaves+b] = []int32{
				FabricHop(a),
				int32(a*spines + s),
				FabricHop(leaves + s),
				int32(b*spines + s),
				FabricHop(b),
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Dragonfly builds a dragonfly fabric: groups of routersPerGroup leaf
// routers with nodesPerRouter node ports each, an all-to-all of local
// links inside every group, and one global link between every pair of
// groups. The global link between groups g < h leaves from router
// h mod R of group g and lands on router g mod R of group h (the
// classic palm-tree assignment), and routing is minimal: local hop to
// the gateway, global hop, local hop to the destination router.
func Dragonfly(groups, routersPerGroup, nodesPerRouter, rails int) (*Topology, error) {
	if groups <= 0 || routersPerGroup <= 0 || nodesPerRouter <= 0 {
		return nil, fmt.Errorf("cluster: dragonfly %dx%dx%d invalid", groups, routersPerGroup, nodesPerRouter)
	}
	if err := checkRails("dragonfly", rails); err != nil {
		return nil, err
	}
	kind := fmt.Sprintf("dragonfly %dx%dx%d", groups, routersPerGroup, nodesPerRouter)
	if groups > MaxTopoLeaves || routersPerGroup > MaxTopoLeaves/groups {
		return nil, tooBig(kind, "leaf switches", MaxTopoLeaves)
	}
	leaves := groups * routersPerGroup
	switch {
	case nodesPerRouter > MaxTopoNodes/leaves:
		return nil, tooBig(kind, "nodes", MaxTopoNodes)
	case groups*routersPerGroup*(routersPerGroup-1)/2+groups*(groups-1)/2 > MaxTopoLinks:
		return nil, tooBig(kind, "links", MaxTopoLinks)
	}
	t := &Topology{
		Name:      fmt.Sprintf("dragonfly-%dx%dx%d", groups, routersPerGroup, nodesPerRouter),
		Leaves:    leaves,
		LeafPorts: nodesPerRouter,
		Switches:  leaves,
		Rails:     rails,
	}
	// Local links first: inside group g, routers i < j get one link.
	local := make(map[[2]int]int32) // (routerA, routerB) sorted -> link index
	for g := 0; g < groups; g++ {
		for i := 0; i < routersPerGroup; i++ {
			for j := i + 1; j < routersPerGroup; j++ {
				a, b := g*routersPerGroup+i, g*routersPerGroup+j
				local[[2]int{a, b}] = int32(len(t.Links))
				t.Links = append(t.Links, Link{A: a, B: b})
			}
		}
	}
	// Global links: one per group pair.
	global := make(map[[2]int]int32) // (groupA, groupB) sorted -> link index
	gateway := func(g, h int) int {  // router in g owning the link to h
		return g*routersPerGroup + h%routersPerGroup
	}
	for g := 0; g < groups; g++ {
		for h := g + 1; h < groups; h++ {
			global[[2]int{g, h}] = int32(len(t.Links))
			t.Links = append(t.Links, Link{A: gateway(g, h), B: gateway(h, g)})
		}
	}
	localLink := func(a, b int) int32 {
		if a > b {
			a, b = b, a
		}
		return local[[2]int{a, b}]
	}
	t.paths = make([][]int32, leaves*leaves)
	for a := 0; a < leaves; a++ {
		for b := 0; b < leaves; b++ {
			idx := a*leaves + b
			if a == b {
				t.paths[idx] = []int32{FabricHop(a)}
				continue
			}
			ga, gb := a/routersPerGroup, b/routersPerGroup
			if ga == gb {
				t.paths[idx] = []int32{FabricHop(a), localLink(a, b), FabricHop(b)}
				continue
			}
			lo, hi := ga, gb
			if lo > hi {
				lo, hi = hi, lo
			}
			gwA, gwB := gateway(ga, gb), gateway(gb, ga)
			p := make([]int32, 0, 7)
			p = append(p, FabricHop(a))
			if a != gwA {
				p = append(p, localLink(a, gwA), FabricHop(gwA))
			}
			p = append(p, global[[2]int{lo, hi}])
			if b != gwB {
				p = append(p, FabricHop(gwB), localLink(gwB, b))
			}
			p = append(p, FabricHop(b))
			t.paths[idx] = p
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Tree builds an arbitrary switch tree: degrees[i] is the fan-out at
// level i counting up from the leaves, so Tree(p, r, 4, 2) is two root
// switches each feeding four leaves of p node ports. Messages climb to
// the lowest common ancestor and descend, traversing the fabric of
// every switch on the way.
func Tree(leafPorts, rails int, degrees ...int) (*Topology, error) {
	if leafPorts <= 0 || len(degrees) == 0 {
		return nil, fmt.Errorf("cluster: tree needs leaf ports and at least one level")
	}
	if err := checkRails("tree", rails); err != nil {
		return nil, err
	}
	// Every level holds at least one switch.
	if len(degrees) >= MaxTopoSwitches {
		return nil, tooBig("tree", "switches", MaxTopoSwitches)
	}
	// Level widths, leaves first: width[0] = prod(degrees), each level
	// above divides by its fan-out. No level is wider than the leaves.
	widths := make([]int, len(degrees)+1)
	widths[len(degrees)] = 1
	switches := 1
	for i := len(degrees) - 1; i >= 0; i-- {
		if degrees[i] <= 0 {
			return nil, fmt.Errorf("cluster: tree degree %d invalid", degrees[i])
		}
		if degrees[i] > MaxTopoLeaves/widths[i+1] {
			return nil, tooBig("tree", "leaf switches", MaxTopoLeaves)
		}
		widths[i] = widths[i+1] * degrees[i]
		if switches += widths[i]; switches > MaxTopoSwitches {
			return nil, tooBig("tree", "switches", MaxTopoSwitches)
		}
	}
	leaves := widths[0]
	if leafPorts > MaxTopoNodes/leaves {
		return nil, tooBig("tree", "nodes", MaxTopoNodes)
	}
	total := 0
	offset := make([]int, len(widths)) // switch id of the first switch at each level
	for i, w := range widths {
		offset[i] = total
		total += w
	}
	name := make([]string, 0, len(degrees))
	for _, d := range degrees {
		name = append(name, strconv.Itoa(d))
	}
	t := &Topology{
		Name:      "tree-" + strconv.Itoa(leafPorts) + "x" + strings.Join(name, "x"),
		Leaves:    leaves,
		LeafPorts: leafPorts,
		Switches:  total,
		Rails:     rails,
	}
	// uplink[s] is the link from switch s to its parent.
	uplink := make([]int32, total)
	parent := make([]int, total)
	for lvl := 0; lvl < len(degrees); lvl++ {
		for i := 0; i < widths[lvl]; i++ {
			child := offset[lvl] + i
			parent[child] = offset[lvl+1] + i/degrees[lvl]
			uplink[child] = int32(len(t.Links))
			t.Links = append(t.Links, Link{A: child, B: parent[child]})
		}
	}
	t.paths = make([][]int32, leaves*leaves)
	for a := 0; a < leaves; a++ {
		for b := 0; b < leaves; b++ {
			idx := a*leaves + b
			if a == b {
				t.paths[idx] = []int32{FabricHop(a)}
				continue
			}
			// Climb both sides to the common ancestor.
			var up, down []int32
			x, y := a, b
			for x != y {
				up = append(up, FabricHop(x), uplink[x])
				down = append(down, FabricHop(y), uplink[y])
				x, y = parent[x], parent[y]
			}
			// down holds (fabric, link) pairs walking up from b; the
			// descent needs (link, fabric) pairs in reverse, ending at
			// b's fabric.
			p := make([]int32, 0, len(up)+len(down)+1)
			p = append(p, up...)
			p = append(p, FabricHop(x))
			for i := len(down) - 2; i >= 0; i -= 2 {
				p = append(p, down[i+1], down[i])
			}
			t.paths[idx] = p
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseTopology parses a topology spec string:
//
//	fattree:<nodes>x<leafPorts>x<spines>
//	dragonfly:<groups>x<routersPerGroup>x<nodesPerRouter>
//	tree:<leafPorts>x<degree>[x<degree>...]
//
// An optional "+<rails>rail" suffix sets the NIC rail count, e.g.
// "fattree:2048x32x8+2rail". It returns the topology and the node
// count the spec implies. Specs beyond the MaxTopo* bounds are errors.
func ParseTopology(spec string) (*Topology, int, error) {
	rails := 1
	if i := strings.Index(spec, "+"); i >= 0 {
		suffix := spec[i+1:]
		spec = spec[:i]
		n, ok := strings.CutSuffix(suffix, "rail")
		if !ok {
			return nil, 0, fmt.Errorf("cluster: topology suffix %q is not of the form <n>rail", suffix)
		}
		r, err := strconv.Atoi(n)
		if err != nil || r < 1 {
			return nil, 0, fmt.Errorf("cluster: bad rail count %q", n)
		}
		rails = r
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, 0, fmt.Errorf("cluster: topology %q is not of the form kind:dims", spec)
	}
	var dims []int
	for _, part := range strings.Split(rest, "x") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: topology %q: %v", spec, err)
		}
		dims = append(dims, v)
	}
	switch kind {
	case "fattree":
		if len(dims) != 3 {
			return nil, 0, fmt.Errorf("cluster: fattree wants <nodes>x<leafPorts>x<spines>, got %q", rest)
		}
		t, err := FatTree(dims[0], dims[1], dims[2], rails)
		if err != nil {
			return nil, 0, err
		}
		return t, dims[0], nil
	case "dragonfly":
		if len(dims) != 3 {
			return nil, 0, fmt.Errorf("cluster: dragonfly wants <groups>x<routers>x<nodes>, got %q", rest)
		}
		t, err := Dragonfly(dims[0], dims[1], dims[2], rails)
		if err != nil {
			return nil, 0, err
		}
		return t, t.Capacity(), nil
	case "tree":
		if len(dims) < 2 {
			return nil, 0, fmt.Errorf("cluster: tree wants <leafPorts>x<degree>..., got %q", rest)
		}
		t, err := Tree(dims[0], rails, dims[1:]...)
		if err != nil {
			return nil, 0, err
		}
		return t, t.Capacity(), nil
	default:
		return nil, 0, fmt.Errorf("cluster: unknown topology kind %q (want fattree, dragonfly or tree)", kind)
	}
}

// Paths returns the switch graph the network model routes over: Topo on
// a hierarchical machine, otherwise the flat machine's stacking daisy
// chain as a Topology. The chain has one leaf per switch, link i joins
// switch i and i+1, and a path is the ingress fabric, the links between
// the two switches in travel order, then the egress fabric. Topo itself
// stays nil on the flat machine, so placement, validation and fault
// targets do not change.
func (c *Config) Paths() *Topology {
	if c.Topo != nil {
		return c.Topo
	}
	s := c.NumSwitches()
	t := &Topology{
		Name:      "chain-" + strconv.Itoa(s),
		Leaves:    s,
		LeafPorts: c.PortsPerSwitch,
		Switches:  s,
		Rails:     1,
		paths:     make([][]int32, s*s),
	}
	for i := 0; i+1 < s; i++ {
		t.Links = append(t.Links, Link{A: i, B: i + 1})
	}
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			p := []int32{FabricHop(a)}
			for l := a; l < b; l++ {
				p = append(p, int32(l))
			}
			for l := a - 1; l >= b; l-- {
				p = append(p, int32(l))
			}
			if a != b {
				p = append(p, FabricHop(b))
			}
			t.paths[a*s+b] = p
		}
	}
	return t
}

// WithTopology returns a copy of the configuration retargeted onto a
// hierarchical topology: the node count, per-leaf port count and Topo
// field are replaced, everything else (link rates, protocol constants,
// host costs) carries over. The node count must fit the topology's
// leaf ports.
func (c Config) WithTopology(t *Topology, nodes int) (Config, error) {
	c.Topo = t
	c.Nodes = nodes
	c.PortsPerSwitch = t.LeafPorts
	c.MaxSwitches = 0
	c.Name = c.Name + "+" + t.Name
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}
