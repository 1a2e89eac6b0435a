package netsim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// sendPathAllocs measures the average heap allocations of one complete
// transfer (schedule through delivery) on a warm network.
func sendPathAllocs(t *testing.T, src, dst int) float64 {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e, cluster.Perseus())
	// Warm the event pool, the xfer pool and every serializer on the path.
	for i := 0; i < 256; i++ {
		n.Transfer(src, dst, 1024, nil)
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(500, func() {
		n.Transfer(src, dst, 1024, nil)
		if _, err := e.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransferAllocsReduced pins the send-path allocation win: the
// pre-pool implementation spent 43 allocs per transfer on closures and
// event boxes. The pooled state machine, whose serializer stages
// schedule its one prebuilt callback directly, runs allocation-free
// once warm.
func TestTransferAllocsReduced(t *testing.T) {
	if got := sendPathAllocs(t, 0, 1); got != 0 {
		t.Errorf("same-switch transfer allocates %v objects/op, want 0 (pre-pool: 43)", got)
	}
	if got := sendPathAllocs(t, 0, 60); got != 0 {
		t.Errorf("cross-switch transfer allocates %v objects/op, want 0 (pre-pool: 43)", got)
	}
	if got := sendPathAllocs(t, 3, 3); got != 0 {
		t.Errorf("intra-node transfer allocates %v objects/op, want 0 (pre-pool: 43)", got)
	}
}

// TestTransferEventBudget pins the events one transfer schedules on the
// serial network: the hop into the first stage, one handoff per hop
// and the delivery, so 2 + hops. Serializer stages nobody waits for
// (the NIC transmit, every fabric and segment) schedule no completion.
// An intra-node copy is the memory bus completion plus the delivery.
func TestTransferEventBudget(t *testing.T) {
	for _, tc := range []struct {
		src, dst, hops int
		want           uint64
	}{
		{0, 1, 1, 3},  // one leaf fabric
		{0, 60, 4, 6}, // fabric, two backplane segments, fabric
		{3, 3, 0, 2},  // memory bus
	} {
		e := sim.NewEngine(1)
		n := New(e, cluster.Perseus())
		if tc.src != tc.dst {
			leaf := n.topo.LeafPorts
			if got := len(n.topo.PathHops(tc.src/leaf, tc.dst/leaf)); got != tc.hops {
				t.Fatalf("%d->%d: path has %d hops, want %d", tc.src, tc.dst, got, tc.hops)
			}
		}
		n.Transfer(tc.src, tc.dst, 1024, nil)
		if _, err := e.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		scheduled := e.Metrics().Counter("sim", "events_scheduled_total")
		before, retries := scheduled.Value(), n.Stats().Retries
		n.Transfer(tc.src, tc.dst, 1024, nil)
		if _, err := e.Run(sim.Forever); err != nil {
			t.Fatal(err)
		}
		if n.Stats().Retries != retries {
			t.Fatalf("%d->%d: the transfer was retried", tc.src, tc.dst)
		}
		if got := scheduled.Value() - before; got != tc.want {
			t.Errorf("%d->%d: one transfer scheduled %d events, want %d (2 + %d hops)",
				tc.src, tc.dst, got, tc.want, tc.hops)
		}
	}
}

func benchTransfers(b *testing.B, src, dst int) {
	e := sim.NewEngine(1)
	n := New(e, cluster.Perseus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Transfer(src, dst, 1024, nil)
		if i%256 == 255 {
			if _, err := e.Run(sim.Forever); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := e.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTransferSameSwitch(b *testing.B)  { benchTransfers(b, 0, 1) }
func BenchmarkTransferCrossSwitch(b *testing.B) { benchTransfers(b, 0, 60) }
func BenchmarkTransferIntraNode(b *testing.B)   { benchTransfers(b, 3, 3) }

// shardedPingPong bounces one message between node 0 and node 40 of
// fattree:64x16x2: each transfer crosses two LP boundaries (leaf 0 to
// the core to leaf 2, or back), and its delivery sends the next one the
// other way. The delivery handler and the kick-off are built once, so a
// run allocates only what the network and the coordinator do.
type shardedPingPong struct {
	net  *ShardedNet
	left int
	kick func()
	last sim.Time // the previous run's makespan
}

func newShardedPingPong(tb testing.TB) *shardedPingPong {
	tb.Helper()
	net, err := NewSharded(1, shardedTopoConfig(tb, "fattree:64x16x2"), 1)
	if err != nil {
		tb.Fatal(err)
	}
	p := &shardedPingPong{net: net}
	net.SetDeliver(func(src, dst, payload int, _ TransferStats) {
		if p.left--; p.left > 0 {
			net.Send(dst, src, payload)
		}
	})
	p.kick = func() { net.Send(0, 40, 1024) }
	return p
}

// run makes n transfers, starting once every LP has finished the
// previous run.
func (p *shardedPingPong) run(tb testing.TB, n int) {
	p.left = n
	p.net.Engine(p.net.OwnerLP(0)).At(p.last, p.kick)
	last, err := p.net.Run()
	if err != nil {
		tb.Fatal(err)
	}
	p.last = last
}

// TestShardedCrossingAllocs: on a warm sharded network, a transfer
// allocates nothing per LP crossing. The xfer itself moves to the next
// LP as the posted message, so the crossing builds no closure.
func TestShardedCrossingAllocs(t *testing.T) {
	p := newShardedPingPong(t)
	p.run(t, 64) // warm the xfer pool, the event pools and the outboxes
	const transfers = 32
	allocs := testing.AllocsPerRun(20, func() { p.run(t, transfers) })
	if c := p.net.Counters(); c.Retries != 0 {
		t.Fatalf("%d retries on an idle network", c.Retries)
	}
	if allocs > 1 {
		t.Errorf("%d transfers (%d LP crossings) allocate %v objects per run, want at most 1 (Run's error slice)",
			transfers, 2*transfers, allocs)
	}
}

// BenchmarkShardedTransfer is the sharded network's unit cost: one
// cross-leaf transfer with its two LP crossings and the windows they
// take, on an otherwise idle fattree:64x16x2. events/op sums every LP's
// scheduled events.
func BenchmarkShardedTransfer(b *testing.B) {
	p := newShardedPingPong(b)
	p.run(b, 64)
	scheduled := func() uint64 {
		var n uint64
		for i := 0; i < p.net.NumLPs(); i++ {
			n += p.net.Engine(i).Metrics().Counter("sim", "events_scheduled_total").Value()
		}
		return n
	}
	before := scheduled()
	b.ReportAllocs()
	b.ResetTimer()
	p.run(b, b.N)
	b.ReportMetric(float64(scheduled()-before)/float64(b.N), "events/op")
}
