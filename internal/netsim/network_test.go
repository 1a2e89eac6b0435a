package netsim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// quietPerseus returns the Perseus config with stochastic noise disabled,
// so latency arithmetic is exact.
func quietPerseus() cluster.Config {
	cfg := cluster.Perseus()
	cfg.JitterSigma = 0
	cfg.SpikeProb = 0
	cfg.FabricJitter = 0
	return cfg
}

// oneTransfer runs a single transfer on an otherwise idle network and
// returns its end-to-end duration in seconds.
func oneTransfer(t *testing.T, cfg cluster.Config, src, dst, size int) (float64, TransferStats) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	var ts TransferStats
	n.Transfer(src, dst, size, func(s TransferStats) { ts = s })
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	return ts.Delivered.Sub(ts.Sent).Seconds(), ts
}

// segmentStage returns the uncontended cut-through delay of one stacking
// segment: one frame's bits at the stack rate plus the forwarding hop.
func segmentStage(cfg cluster.Config, size int) float64 {
	frame := cfg.WireBytes(size)
	if max := cfg.MTU + cfg.FrameOverhead; frame > max {
		frame = max
	}
	return float64(frame)*8/cfg.StackRate + cfg.SwitchLatency
}

// stageFrame returns the uncontended cut-through delay of one switch
// fabric pass, which additionally pays the forwarding engine's per-frame
// processing.
func stageFrame(cfg cluster.Config, size int) float64 {
	return segmentStage(cfg, size) + cfg.FabricPerFrame
}

func TestUncontendedLatencyFormula(t *testing.T) {
	cfg := quietPerseus()
	for _, size := range []int{0, 64, 1024, 16384, 131072} {
		got, ts := oneTransfer(t, cfg, 0, 1, size)
		// Same-switch path: first-frame store-and-forward + hop, a
		// cut-through pass over the switch fabric, then the pipelined
		// stream onto the destination link.
		want := cfg.FrameTime(size) + cfg.SwitchLatency +
			stageFrame(cfg, size) +
			float64(cfg.WireBytes(size))*8/cfg.LinkRate
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("size %d: latency %v, want %v", size, got, want)
		}
		if ts.CrossSwitch {
			t.Errorf("size %d: nodes 0,1 should share a switch", size)
		}
		if ts.Retries != 0 {
			t.Errorf("size %d: unexpected retries", size)
		}
	}
}

func TestCrossSwitchAddsBackplane(t *testing.T) {
	cfg := quietPerseus()
	same, _ := oneTransfer(t, cfg, 0, 1, 16384)
	cross, ts := oneTransfer(t, cfg, 0, 24, 16384)
	if !ts.CrossSwitch {
		t.Fatal("nodes 0 and 24 should be on different switches")
	}
	// One stacking segment plus the egress switch's fabric.
	want := same + segmentStage(cfg, 16384) + stageFrame(cfg, 16384)
	if math.Abs(cross-want) > 1e-9 {
		t.Errorf("cross-switch latency %v, want %v", cross, want)
	}
	// Spanning a further switch adds one more segment.
	far, ts2 := oneTransfer(t, cfg, 0, 48, 16384)
	if !ts2.CrossSwitch {
		t.Fatal("nodes 0 and 48 should be two switches apart")
	}
	if math.Abs(far-(cross+segmentStage(cfg, 16384))) > 1e-9 {
		t.Errorf("two-segment latency %v, want %v", far, cross+segmentStage(cfg, 16384))
	}
}

func TestGoodputNear81Mbit(t *testing.T) {
	// The paper: "81 Mbit/s is achieved between two processes for 16
	// Kbyte messages". The network-only portion must leave room for
	// ~60 µs of host overhead and still land near 81 Mbit/s.
	cfg := quietPerseus()
	lat, _ := oneTransfer(t, cfg, 0, 1, 16384)
	hostOverhead := cfg.SendOverhead + cfg.RecvOverhead + float64(16384)*cfg.PerByteCPU
	goodput := 16384 * 8 / (lat + hostOverhead)
	if goodput < 76e6 || goodput > 86e6 {
		t.Errorf("16KB goodput = %.1f Mbit/s, want ~81", goodput/1e6)
	}
}

func TestLatencyLinearInSize(t *testing.T) {
	// T = l + b/W: doubling the size should roughly double the
	// size-dependent part.
	cfg := quietPerseus()
	t1, _ := oneTransfer(t, cfg, 0, 1, 32768)
	t2, _ := oneTransfer(t, cfg, 0, 1, 65536)
	t4, _ := oneTransfer(t, cfg, 0, 1, 131072)
	d1, d2 := t2-t1, t4-t2
	if math.Abs(d2-2*d1)/d2 > 0.05 {
		t.Errorf("latency not linear: deltas %v, %v", d1, d2)
	}
}

func TestIntraNodeFasterForSmall(t *testing.T) {
	cfg := quietPerseus()
	intra, ts := oneTransfer(t, cfg, 3, 3, 1024)
	inter, _ := oneTransfer(t, cfg, 3, 4, 1024)
	if intra >= inter {
		t.Errorf("intra-node %v should beat inter-node %v for 1KB", intra, inter)
	}
	if ts.CrossSwitch {
		t.Error("intra-node transfer cannot cross switches")
	}
}

func TestNICSharingSerialisesTransfers(t *testing.T) {
	// Two simultaneous sends from one node (the SMP case) must queue at
	// the single NIC: the second finishes roughly one transmit time
	// after the first.
	cfg := quietPerseus()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		dst := 1 + i
		n.Transfer(0, dst, 16384, func(s TransferStats) { ends = append(ends, s.Delivered) })
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	gap := ends[1].Sub(ends[0]).Seconds()
	want := float64(cfg.WireBytes(16384)) * 8 / cfg.LinkRate
	if math.Abs(gap-want) > 1e-9 {
		t.Errorf("NIC sharing gap = %v, want %v", gap, want)
	}
}

func TestRxContentionSerialisesAtReceiver(t *testing.T) {
	// Many senders to one receiver: the receive link is the bottleneck,
	// so N transfers take ~N transmit times to deliver.
	cfg := quietPerseus()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	const senders = 8
	var last sim.Time
	done := 0
	for i := 0; i < senders; i++ {
		n.Transfer(1+i, 0, 16384, func(s TransferStats) {
			done++
			if s.Delivered > last {
				last = s.Delivered
			}
		})
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if done != senders {
		t.Fatalf("delivered %d of %d", done, senders)
	}
	wire := float64(cfg.WireBytes(16384)) * 8 / cfg.LinkRate
	if last.Seconds() < float64(senders)*wire {
		t.Errorf("last delivery %v too fast for a serialised receive link (%v)",
			last.Seconds(), float64(senders)*wire)
	}
}

func TestSaturationCausesRetries(t *testing.T) {
	// Hammer the backplane with far more offered load than 2.1 Gbit/s:
	// 60 nodes on switch 0 each stream 10 × 64 KB to a partner on
	// switch 1. Buffers must overflow and retransmissions occur.
	cfg := quietPerseus()
	e := sim.NewEngine(2)
	n := New(e, cfg)
	delivered := 0
	total := 0
	for src := 0; src < 20; src++ {
		for k := 0; k < 10; k++ {
			total++
			n.Transfer(src, 24+src, 65536, func(TransferStats) { delivered++ })
		}
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	st := n.Stats()
	if st.Retries == 0 {
		t.Error("expected retransmissions under saturation")
	}
	if st.MaxStackWait.Seconds() < cfg.StackBufferDelay() {
		t.Errorf("stack backlog %v never reached the buffer limit %v",
			st.MaxStackWait.Seconds(), cfg.StackBufferDelay())
	}
}

func TestNoRetriesWhenUncontended(t *testing.T) {
	cfg := cluster.Perseus() // jitter on: retries must still be impossible
	e := sim.NewEngine(3)
	n := New(e, cfg)
	for i := 0; i < 50; i++ {
		n.Transfer(0, 30, 1024, nil)
		n.Transfer(5, 60, 1024, nil)
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Retries != 0 {
		t.Errorf("uncontended traffic suffered %d retries", n.Stats().Retries)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []sim.Time {
		e := sim.NewEngine(seed)
		n := New(e, cluster.Perseus())
		var out []sim.Time
		for i := 0; i < 30; i++ {
			n.Transfer(i%10, 30+i%10, 4096, func(s TransferStats) {
				out = append(out, s.Delivered)
			})
		}
		if _, err := e.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at transfer %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jittered timings")
	}
}

func TestCountersTrackActivity(t *testing.T) {
	cfg := quietPerseus()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	n.Transfer(0, 0, 100, nil)  // intra-node
	n.Transfer(0, 1, 100, nil)  // same switch
	n.Transfer(0, 30, 100, nil) // cross switch
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Transfers != 3 || st.IntraNode != 1 || st.CrossSwitch != 1 {
		t.Errorf("counters = %+v", st)
	}
	if st.WireBytes != uint64(2*cfg.WireBytes(100)) {
		t.Errorf("WireBytes = %d", st.WireBytes)
	}
}

func TestTransferValidation(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, quietPerseus())
	for name, f := range map[string]func(){
		"bad src":          func() { n.Transfer(-1, 0, 10, nil) },
		"bad dst":          func() { n.Transfer(0, 1000, 10, nil) },
		"negative payload": func() { n.Transfer(0, 1, -5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestZeroByteTransferStillCostsAFrame(t *testing.T) {
	cfg := quietPerseus()
	lat, _ := oneTransfer(t, cfg, 0, 1, 0)
	if lat <= 0 {
		t.Error("zero-byte transfer should still take a minimal frame time")
	}
	min := 2 * float64(cfg.MinFrame) * 8 / cfg.LinkRate
	if lat < min {
		t.Errorf("latency %v below two minimal frame times %v", lat, min)
	}
}
