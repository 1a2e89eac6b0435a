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
// schedule its prebuilt callbacks directly, runs allocation-free once
// warm.
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
