package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPerseusValid(t *testing.T) {
	cfg := Perseus()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 116 || cfg.CPUsPerNode != 2 {
		t.Error("Perseus should have 116 dual-CPU nodes")
	}
	if cfg.NumSwitches() != 5 {
		t.Errorf("Perseus should span 5 switches, got %d", cfg.NumSwitches())
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := Perseus()
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CPUsPerNode = -1 },
		func(c *Config) { c.PortsPerSwitch = 0 },
		func(c *Config) { c.LinkRate = 0 },
		func(c *Config) { c.StackRate = -5 },
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.MinFrame = 0 },
		func(c *Config) { c.CtrlBytes = 0 },
		func(c *Config) { c.RTO = 0 },
		func(c *Config) { c.RTOBackoff = 0.5 },
		func(c *Config) { c.MaxDropProb = 1.5 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config passed validation", i)
		}
	}
}

func TestSwitchOf(t *testing.T) {
	cfg := Perseus()
	if cfg.SwitchOf(0) != 0 || cfg.SwitchOf(23) != 0 {
		t.Error("first 24 nodes should be on switch 0")
	}
	if cfg.SwitchOf(24) != 1 || cfg.SwitchOf(63) != 2 {
		t.Error("switch assignment broken")
	}
	// The paper's 64×1 case spans three switches (24+24+16).
	seen := map[int]int{}
	for node := 0; node < 64; node++ {
		seen[cfg.SwitchOf(node)]++
	}
	if len(seen) != 3 || seen[0] != 24 || seen[1] != 24 || seen[2] != 16 {
		t.Errorf("64 nodes span %v, want 24/24/16", seen)
	}
}

func TestWireBytes(t *testing.T) {
	cfg := Perseus()
	if got := cfg.WireBytes(0); got != cfg.MinFrame {
		t.Errorf("WireBytes(0) = %d", got)
	}
	if got := cfg.WireBytes(100); got != 178 {
		t.Errorf("WireBytes(100) = %d, want 178", got)
	}
	// Exactly one MTU: one frame of overhead.
	if got := cfg.WireBytes(1460); got != 1538 {
		t.Errorf("WireBytes(1460) = %d, want 1538", got)
	}
	// One byte more: two frames.
	if got := cfg.WireBytes(1461); got != 1461+2*78 {
		t.Errorf("WireBytes(1461) = %d", got)
	}
	// Framing overhead at 16 KB should be ~4%, the paper's 3.25/81.
	ratio := float64(cfg.WireBytes(16384))/16384 - 1
	if ratio < 0.03 || ratio > 0.07 {
		t.Errorf("framing overhead at 16KB = %.1f%%", ratio*100)
	}
}

func TestWireBytesMonotoneProperty(t *testing.T) {
	cfg := Perseus()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return cfg.WireBytes(x) <= cfg.WireBytes(y) && cfg.WireBytes(x) >= x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransmitAndFrameTime(t *testing.T) {
	cfg := Perseus()
	// 16 KB on the 100 Mbit/s link.
	tt := float64(cfg.WireBytes(16384)) * 8 / cfg.LinkRate
	want := float64(16384+12*cfg.FrameOverhead) * 8 / 100e6 // 12 MTU frames
	if math.Abs(tt-want) > 1e-12 {
		t.Errorf("transmit time = %v, want %v", tt, want)
	}
	// FrameTime caps at one MTU.
	if cfg.FrameTime(1_000_000) != cfg.FrameTime(cfg.MTU) {
		t.Error("FrameTime should cap at one MTU")
	}
	if cfg.FrameTime(100) >= cfg.FrameTime(1400) {
		t.Error("FrameTime should grow with payload below the MTU")
	}
}

func TestDropProb(t *testing.T) {
	cfg := Perseus()
	th := cfg.NICBufferDelay()
	if cfg.DropProb(th/2, th) != 0 {
		t.Error("below threshold should never drop")
	}
	if cfg.DropProb(th, th) != 0 {
		t.Error("at threshold should not drop yet")
	}
	p1 := cfg.DropProb(th*1.5, th)
	p2 := cfg.DropProb(th*2.5, th)
	if !(p1 > 0 && p2 > p1) {
		t.Errorf("drop prob not increasing: %v, %v", p1, p2)
	}
	if p := cfg.DropProb(th*100, th); p != cfg.MaxDropProb {
		t.Errorf("drop prob should cap at %v, got %v", cfg.MaxDropProb, p)
	}
}

func TestBlockPlacement(t *testing.T) {
	cfg := Perseus()
	pl, err := NewBlockPlacement(&cfg, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumProcs() != 128 {
		t.Errorf("NumProcs = %d", pl.NumProcs())
	}
	if pl.NodeOf(0) != 0 || pl.NodeOf(1) != 0 || pl.NodeOf(2) != 1 {
		t.Error("block placement broken")
	}
	if pl.SlotOf(0) != 0 || pl.SlotOf(1) != 1 || pl.SlotOf(3) != 1 {
		t.Error("slot assignment broken")
	}
	if pl.NodeOf(0) != pl.NodeOf(1) || pl.NodeOf(1) == pl.NodeOf(2) {
		t.Error("ranks 0 and 1 should share a node, 1 and 2 should not")
	}
	if pl.String() != "64x2" {
		t.Errorf("String = %q", pl.String())
	}
	// MPIBench pairing (i, i+P/2) must always cross nodes for n >= 2.
	half := pl.NumProcs() / 2
	for i := 0; i < half; i++ {
		if pl.NodeOf(i) == pl.NodeOf(i+half) {
			t.Fatalf("pair (%d,%d) landed on one node", i, i+half)
		}
	}
}

func TestScatteredPlacement(t *testing.T) {
	cfg := Perseus()
	pl, err := NewPlacement(&cfg, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both ranks of a logical node still share one physical node.
	if pl.NodeOf(0) != pl.NodeOf(1) || pl.NodeOf(2) == pl.NodeOf(1) {
		t.Error("rank-to-node grouping broken under scatter")
	}
	if pl.LogicalNode(0) != 0 || pl.LogicalNode(2) != 1 || pl.LogicalNode(127) != 63 {
		t.Error("logical node indexing broken")
	}
	// The job's physical nodes are distinct and within the machine.
	seen := map[int]bool{}
	switches := map[int]int{}
	for logical := 0; logical < 64; logical++ {
		phys := pl.NodeOf(logical * 2)
		if phys < 0 || phys >= cfg.Nodes {
			t.Fatalf("physical node %d out of range", phys)
		}
		if seen[phys] {
			t.Fatalf("physical node %d assigned twice", phys)
		}
		seen[phys] = true
		switches[cfg.SwitchOf(phys)]++
	}
	// Scattering spreads the job over every switch of the machine.
	if len(switches) != cfg.NumSwitches() {
		t.Errorf("scattered job uses %d switches, want %d", len(switches), cfg.NumSwitches())
	}
	// Logically adjacent nodes land on different switches.
	sameSwitch := 0
	for logical := 0; logical < 63; logical++ {
		a := cfg.SwitchOf(pl.NodeOf(logical * 2))
		b := cfg.SwitchOf(pl.NodeOf((logical + 1) * 2))
		if a == b {
			sameSwitch++
		}
	}
	if sameSwitch > 8 {
		t.Errorf("%d of 63 adjacent logical nodes share a switch; scatter not spreading", sameSwitch)
	}
}

func TestPlacementValidation(t *testing.T) {
	cfg := Perseus()
	if _, err := NewPlacement(&cfg, 0, 1); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := NewPlacement(&cfg, 200, 1); err == nil {
		t.Error("more nodes than machine should fail")
	}
	if _, err := NewPlacement(&cfg, 2, 3); err == nil {
		t.Error("oversubscribed CPUs should fail")
	}
}

func TestParsePlacement(t *testing.T) {
	cfg := Perseus()
	pl, err := ParsePlacement(&cfg, "16x2")
	if err != nil || pl.NodeCount != 16 || pl.PerNode != 2 {
		t.Errorf("ParsePlacement: %v %v", pl, err)
	}
	if _, err := ParsePlacement(&cfg, "16"); err == nil {
		t.Error("missing x should fail")
	}
	if _, err := ParsePlacement(&cfg, "axb"); err == nil {
		t.Error("non-numeric should fail")
	}
}

type fixedRand struct{ f, n float64 }

func (r fixedRand) Float64() float64     { return r.f }
func (r fixedRand) NormFloat64() float64 { return r.n }

func TestComputeModel(t *testing.T) {
	m := DefaultComputeModel()
	// With zero noise sources, Duration is the nominal value.
	quiet := ComputeModel{}
	if got := quiet.Duration(1.5, fixedRand{}); got != 1.5 {
		t.Errorf("quiet Duration = %v", got)
	}
	// Jitter shifts the value but stays near nominal.
	got := m.Duration(1.0, fixedRand{f: 0.9, n: 1})
	if math.Abs(got-1.0) > 0.05 {
		t.Errorf("jittered Duration = %v, want ~1.0", got)
	}
	// A spike (Float64 below SpikeProb) adds time.
	spiky := ComputeModel{SpikeProb: 0.5, SpikeSeconds: 1}
	if got := spiky.Duration(1.0, fixedRand{f: 0.1}); got <= 1.0 {
		t.Errorf("spike did not add time: %v", got)
	}
}
