package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// Satellite regression: before MaxSwitches, a Perseus config with more
// nodes than the machine's five switches can physically port would pass
// validation — NumSwitches silently derived a sixth (and seventh, ...)
// switch from the node count. The physical machine has 5×24 = 120 node
// ports; anything beyond must be rejected loudly.
func TestOversubscribedFlatConfigRejected(t *testing.T) {
	cfg := Perseus()
	cfg.Nodes = 120 // exactly full: fine
	if err := cfg.Validate(); err != nil {
		t.Fatalf("120 nodes on 5x24 ports should validate: %v", err)
	}
	cfg.Nodes = 121
	err := cfg.Validate()
	if err == nil {
		t.Fatal("121 nodes on a 5-switch, 24-port machine passed validation")
	}
	if !strings.Contains(err.Error(), "oversubscribe") {
		t.Errorf("error should name the oversubscription, got: %v", err)
	}
	// A machine without a declared chassis count keeps the old derived
	// behaviour.
	cfg.MaxSwitches = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("unbounded machine should derive switches freely: %v", err)
	}
	if cfg.NumSwitches() != 6 {
		t.Errorf("121 nodes / 24 ports = %d switches, want 6", cfg.NumSwitches())
	}
}

func TestFatTreeGenerator(t *testing.T) {
	topo, err := FatTree(2048, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Leaves != 64 || topo.Switches != 64+8 {
		t.Fatalf("2048x32x8: leaves=%d switches=%d", topo.Leaves, topo.Switches)
	}
	if topo.NumSegments() != 64*8 {
		t.Errorf("want one link per (leaf, spine) pair, got %d", topo.NumSegments())
	}
	if topo.Capacity() != 2048 {
		t.Errorf("capacity = %d", topo.Capacity())
	}
	// Same-leaf traffic crosses only the leaf fabric.
	if p := topo.PathHops(3, 3); len(p) != 1 || p[0] != FabricHop(3) {
		t.Errorf("intra-leaf path = %v", p)
	}
	// Cross-leaf traffic: leaf fabric, uplink, spine fabric, downlink,
	// leaf fabric — and the spine is the deterministic (a+b) mod s.
	p := topo.PathHops(3, 10)
	if len(p) != 5 {
		t.Fatalf("cross-leaf path = %v", p)
	}
	spine, ok := IsFabricHop(p[2])
	if !ok || spine != 64+(3+10)%8 {
		t.Errorf("spine hop = %v, want fabric of spine %d", p[2], (3+10)%8)
	}
	// Both directions ride the same spine (symmetric choice), so a
	// degraded link hurts the pair both ways.
	q := topo.PathHops(10, 3)
	if rs, _ := IsFabricHop(q[2]); rs != spine {
		t.Errorf("reverse path uses spine %d, forward %d", rs, spine)
	}
	if err := topo.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDragonflyGenerator(t *testing.T) {
	topo, err := Dragonfly(4, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Leaves != 16 || topo.Switches != 16 || topo.Capacity() != 128 {
		t.Fatalf("4x4x8: leaves=%d switches=%d cap=%d", topo.Leaves, topo.Switches, topo.Capacity())
	}
	// 4 groups × C(4,2)=6 local links + C(4,2)=6 global links.
	if topo.NumSegments() != 4*6+6 {
		t.Errorf("links = %d, want 30", topo.NumSegments())
	}
	// Same router: fabric only. Same group: one local link.
	if p := topo.PathHops(5, 5); len(p) != 1 {
		t.Errorf("same-router path = %v", p)
	}
	if p := topo.PathHops(4, 6); len(p) != 3 {
		t.Errorf("intra-group path = %v", p)
	}
	// Cross-group minimal route: src fabric, [local to gateway], global,
	// [local from gateway], dst fabric. Longest form is 7 hops.
	p := topo.PathHops(0, 4) // group 0 router 0 -> group 1 router 0
	// gateway(0,1) = router 1 of group 0; gateway(1,0) = router 0 of
	// group 1 = leaf 4, which IS the destination.
	if len(p) != 5 {
		t.Errorf("cross-group path 0->4 = %v, want 5 hops (local, global, no dst-side local)", p)
	}
	if err := topo.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTreeGenerator(t *testing.T) {
	topo, err := Tree(4, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 4×2 = 8 leaves, 2 mid switches, 1 root.
	if topo.Leaves != 8 || topo.Switches != 11 {
		t.Fatalf("tree 4x2: leaves=%d switches=%d", topo.Leaves, topo.Switches)
	}
	if topo.NumSegments() != 8+2 {
		t.Errorf("links = %d, want 10 (8 leaf uplinks + 2 mid uplinks)", topo.NumSegments())
	}
	// Siblings meet at their shared mid switch: 5 hops.
	if p := topo.PathHops(0, 1); len(p) != 5 {
		t.Errorf("sibling path = %v", p)
	}
	// Opposite halves climb to the root: 9 hops.
	p := topo.PathHops(0, 7)
	if len(p) != 9 {
		t.Fatalf("cross-root path = %v", p)
	}
	if sw, ok := IsFabricHop(p[4]); !ok || sw != 10 {
		t.Errorf("middle of cross-root path should be the root fabric, got %v", p[4])
	}
	if err := topo.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParseTopology(t *testing.T) {
	topo, nodes, err := ParseTopology("fattree:2048x32x8")
	if err != nil || nodes != 2048 || topo.Leaves != 64 {
		t.Fatalf("fattree spec: %v nodes=%d", err, nodes)
	}
	if topo.Rails != 1 {
		t.Errorf("default rails = %d", topo.Rails)
	}
	topo, nodes, err = ParseTopology("dragonfly:4x4x8+2rail")
	if err != nil || nodes != 128 || topo.Rails != 2 {
		t.Fatalf("dragonfly spec: %v nodes=%d rails=%d", err, nodes, topo.Rails)
	}
	if _, nodes, err = ParseTopology("tree:4x4x2"); err != nil || nodes != 32 {
		t.Fatalf("tree spec: %v nodes=%d", err, nodes)
	}
	for _, bad := range []string{
		"", "fattree", "fattree:2048", "mesh:4x4", "fattree:ax32x8",
		"fattree:2048x32x8+0rail", "fattree:2048x32x8+xrail", "fattree:2048x32x8+2lanes",
		"fattree:2048x32x8+-2rail", "dragonfly:4x4x8+0rail", "tree:4x4+0rail",
		"fattree:0x32x8", "dragonfly:4x4", "tree:4",
	} {
		if _, _, err := ParseTopology(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// Satellite regression: the generators used to silently normalise
// rails == 0 to 1, so a caller who reached FatTree/Dragonfly/Tree
// directly with a non-positive rail count got a single-rail fabric
// instead of an error. Non-positive rail counts must be rejected at
// the generator layer, not papered over.
func TestGeneratorsRejectNonPositiveRails(t *testing.T) {
	for _, rails := range []int{0, -2} {
		if _, err := FatTree(64, 8, 4, rails); err == nil {
			t.Errorf("FatTree with rails=%d should fail", rails)
		}
		if _, err := Dragonfly(4, 4, 8, rails); err == nil {
			t.Errorf("Dragonfly with rails=%d should fail", rails)
		}
		if _, err := Tree(4, rails, 4, 2); err == nil {
			t.Errorf("Tree with rails=%d should fail", rails)
		}
	}
	// rails == 1 stays valid (no default needed).
	if _, err := FatTree(64, 8, 4, 1); err != nil {
		t.Errorf("FatTree with rails=1: %v", err)
	}
}

func TestWithTopology(t *testing.T) {
	topo, nodes, err := ParseTopology("fattree:128x32x4")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Perseus().WithTopology(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 128 || cfg.PortsPerSwitch != 32 || cfg.Topo == nil {
		t.Fatalf("WithTopology: nodes=%d ports=%d topo=%v", cfg.Nodes, cfg.PortsPerSwitch, cfg.Topo)
	}
	if cfg.NumSwitches() != topo.Switches || cfg.NumSegments() != topo.NumSegments() {
		t.Error("switch/segment counts should come from the topology")
	}
	if cfg.SwitchOf(33) != 1 {
		t.Errorf("SwitchOf(33) = %d, want leaf 1", cfg.SwitchOf(33))
	}
	if cfg.Rails() != 1 {
		t.Errorf("Rails = %d", cfg.Rails())
	}

	// Oversubscribing the topology's leaf ports is rejected (the
	// hierarchical twin of the flat MaxSwitches check).
	if _, err := Perseus().WithTopology(topo, 129); err == nil {
		t.Fatal("129 nodes on a 128-port fat-tree passed validation")
	}
	// As is a config whose PortsPerSwitch disagrees with the topology.
	bad := cfg
	bad.PortsPerSwitch = 24
	if err := bad.Validate(); err == nil {
		t.Fatal("PortsPerSwitch mismatch passed validation")
	}

	// Multi-rail propagates through Config.Rails.
	topo2, nodes2, err := ParseTopology("fattree:128x32x4+2rail")
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := Perseus().WithTopology(topo2, nodes2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Rails() != 2 {
		t.Errorf("Rails = %d, want 2", cfg2.Rails())
	}
}

// Satellite regression: round-robin scatter on a hierarchical topology
// used to land every pair of adjacent logical nodes on different
// leaves, sending all neighbour traffic across the bisection. Under a
// topology, placement must fill leaf switches first.
func TestTopologyPlacementLocality(t *testing.T) {
	topo, nodes, err := ParseTopology("fattree:64x16x4")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Perseus().WithTopology(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacement(&cfg, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameLeaf := 0
	leaves := map[int]bool{}
	for rank := 0; rank < 63; rank++ {
		a := cfg.SwitchOf(pl.NodeOf(rank))
		b := cfg.SwitchOf(pl.NodeOf(rank + 1))
		if a == b {
			sameLeaf++
		}
		leaves[a] = true
	}
	// Leaf-first fill: only the 3 leaf boundaries cross the bisection.
	if sameLeaf != 60 {
		t.Errorf("%d of 63 adjacent pairs share a leaf, want 60", sameLeaf)
	}
	if len(leaves) != 4 {
		t.Errorf("full job should still use all 4 leaves, used %d", len(leaves))
	}

	// For contrast: the flat round-robin scatter (node i on switch i%4)
	// puts every adjacent pair on different leaves. With 4 leaves the
	// old formula gives 0 same-leaf pairs out of 63 — all neighbour
	// traffic over the bisection.
	scatterSame := 0
	for rank := 0; rank < 63; rank++ {
		if rank%4 == (rank+1)%4 {
			scatterSame++
		}
	}
	if scatterSame != 0 {
		t.Fatalf("test premise wrong: scatter gives %d same-leaf pairs", scatterSame)
	}
}

func TestFlatPathsAreTheStackingChain(t *testing.T) {
	cfg := Perseus()
	topo := cfg.Paths()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Topo != nil {
		t.Fatal("Paths set Topo on the flat machine")
	}
	if topo.Leaves != cfg.NumSwitches() || topo.LeafPorts != cfg.PortsPerSwitch || topo.NumSegments() != cfg.NumSegments() {
		t.Fatalf("chain: leaves=%d ports=%d links=%d", topo.Leaves, topo.LeafPorts, topo.NumSegments())
	}
	for _, tc := range []struct {
		src, dst int
		want     []int32
	}{
		{2, 2, []int32{FabricHop(2)}},
		{0, 1, []int32{FabricHop(0), 0, FabricHop(1)}},
		{1, 4, []int32{FabricHop(1), 1, 2, 3, FabricHop(4)}},
		{3, 0, []int32{FabricHop(3), 2, 1, 0, FabricHop(0)}},
	} {
		if got := topo.PathHops(tc.src, tc.dst); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("chain path %d->%d = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
	hier, _, err := ParseTopology("fattree:64x16x4")
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = Perseus().WithTopology(hier, 64); err != nil {
		t.Fatal(err)
	}
	if cfg.Paths() != hier {
		t.Error("Paths of a hierarchical machine is not its topology")
	}
}

// A topology spec can arrive in a service request, so a spec whose path
// table or node state would exhaust memory must be an error, not a
// panic or an out-of-memory crash.
func TestParseTopologyRejectsOversizedSpecs(t *testing.T) {
	for _, spec := range []string{
		"tree:4x65536x65536x65536x65536", // panicked: makeslice: len out of range
		"tree:1x4294967296x4294967296",   // died: runtime: out of memory
		"fattree:2048x1x1",               // 2048 leaves: 201 MB of paths
		"dragonfly:64x32x1",              // 2048 leaves
		"fattree:257x1x1",                // one leaf over the bound
		"dragonfly:257x1x1",
		"tree:1x257",
		"fattree:64x1x961",    // spines push the switch count over
		"fattree:256x1x65",    // 256 × 65 links
		"dragonfly:1x1x65537", // nodes
		"tree:65537x1",        // nodes
		"tree:1" + strings.Repeat("x1", MaxTopoSwitches), // levels
		"fattree:64x16x4+17rail",
		"fattree:9223372036854775807x9223372036854775807x1",
		"dragonfly:9223372036854775807x9223372036854775807x1",
	} {
		if _, _, err := ParseTopology(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	for _, spec := range []string{"fattree:256x1x1", "dragonfly:16x16x1", "tree:1x256", "fattree:65536x256x1", "fattree:64x16x4+16rail"} {
		if _, _, err := ParseTopology(spec); err != nil {
			t.Errorf("spec %q at the bound rejected: %v", spec, err)
		}
	}
}

// FuzzParseTopology: no spec panics, and an accepted spec yields a
// valid topology whose leaves hold every node it implies.
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{
		"dragonfly:4x2x4", "dragonfly:4x2x4+2rail", "dragonfly:4x4", "dragonfly:4x4x8+0rail",
		"dragonfly:4x4x8+2rail", "dragonfly:64x32x1", "dragonfly:8x4x8", "dragonfly:8x4x8+2rail",
		"fattree:0x32x8", "fattree:100x16x4", "fattree:128x32x4", "fattree:128x32x4+2rail",
		"fattree:2048", "fattree:2048x1x1", "fattree:2048x32x8", "fattree:2048x32x8+0rail",
		"fattree:2048x32x8+2rail", "fattree:256x16x4", "fattree:256x32x8", "fattree:2x16x1",
		"fattree:32x8x2", "fattree:32x8x2+2rail", "fattree:512x16x4", "fattree:64x16x2",
		"fattree:64x16x4", "fattree:64x32x1", "fattree:64x8x4", "tree:1x4294967296x4294967296",
		"tree:4", "tree:4x4+0rail", "tree:4x4x2", "tree:4x65536x65536x65536x65536", "tree:8x4x2",
		"", "fattree", "mesh:4x4", "fattree:ax32x8", "fattree:2048x32x8+xrail",
		"fattree:2048x32x8+2lanes", "fattree:2048x32x8+-2rail",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, nodes, err := ParseTopology(spec)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if nodes < 1 || nodes > topo.Capacity() || (nodes-1)/topo.LeafPorts >= topo.Leaves {
			t.Fatalf("%q: %d nodes do not fit %d leaves of %d ports", spec, nodes, topo.Leaves, topo.LeafPorts)
		}
	})
}
