package netsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

// shardedTopoConfig builds a hierarchical cluster from a topology spec.
func shardedTopoConfig(t testing.TB, spec string) cluster.Config {
	t.Helper()
	topo, nodes, err := cluster.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(1, cluster.Perseus(), 1); err == nil {
		t.Error("flat config accepted for sharded execution")
	} else if !strings.Contains(err.Error(), "topology") {
		t.Errorf("flat rejection should mention the missing topology: %v", err)
	}

	cfg := shardedTopoConfig(t, "fattree:32x8x2")
	cfg.SwitchLatency = 0
	if _, err := NewSharded(1, cfg, 1); err == nil {
		t.Error("zero switch latency accepted: a zero-lookahead shard boundary")
	} else if !strings.Contains(err.Error(), "zero-latency") {
		t.Errorf("zero-latency rejection should explain itself: %v", err)
	}

	bad := shardedTopoConfig(t, "fattree:32x8x2")
	bad.Nodes = 0
	if _, err := NewSharded(1, bad, 1); err == nil {
		t.Error("invalid config accepted")
	}

	net, err := NewSharded(1, shardedTopoConfig(t, "fattree:32x8x2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLPs() != 5 { // 4 leaves + core
		t.Errorf("NumLPs = %d, want 5", net.NumLPs())
	}
	if net.lookahead != sim.DurationFromSeconds(net.Config().SwitchLatency) {
		t.Error("lookahead should equal the switch latency")
	}
	defer func() {
		if recover() == nil {
			t.Error("Send before SetDeliver did not panic")
		}
	}()
	net.Send(0, 1, 64)
}

// shardedRun drives mixedTraffic over a sharded network and serialises
// everything observable: per-LP delivery logs, aggregated counters, the
// merged metrics snapshot and the makespan.
func shardedRun(t *testing.T, seed uint64, workers int, spec string, withFaults bool) string {
	t.Helper()
	deliveries, metricsText, _ := shardedOutput(t, seed, workers, spec, withFaults, mixedTraffic)
	return deliveries + metricsText
}

// mixedTraffic has every node send cross-leaf to the same port of the
// next leaf, one same-leaf neighbour message, and one self-message, at
// staggered start times scheduled on the sender's LP.
func mixedTraffic(net *ShardedNet, cfg cluster.Config) {
	for node := 0; node < cfg.Nodes; node++ {
		src := node
		lp := net.OwnerLP(src)
		at := sim.Time(src+1) * sim.Time(sim.Microsecond)
		cross := (src + cfg.Topo.LeafPorts) % cfg.Nodes
		local := (src/cfg.Topo.LeafPorts)*cfg.Topo.LeafPorts + (src+1)%cfg.Topo.LeafPorts
		if local >= cfg.Nodes {
			local = src
		}
		localDst := local
		net.Engine(lp).At(at, func() {
			net.Send(src, cross, 4096)
			net.Send(src, localDst, 512)
			net.Send(src, src, 256)
		})
	}
}

// shardedOutput runs traffic over a sharded network and returns the
// makespan, per-LP delivery logs and counters as one text, the merged
// metrics snapshot as another, and the network for further checks.
func shardedOutput(t *testing.T, seed uint64, workers int, spec string, withFaults bool,
	traffic func(*ShardedNet, cluster.Config)) (deliveries, metricsText string, net *ShardedNet) {
	t.Helper()
	cfg := shardedTopoConfig(t, spec)
	net, err := NewSharded(seed, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if withFaults {
		span := sim.TimeFromSeconds(0.05)
		net.SetFaults(&faults.Schedule{Name: "test", Rules: []faults.Rule{
			// A guaranteed drop window on node 0's deliveries: every
			// arrival during the window fails and the retry notification
			// crosses back to the sender's LP.
			{Kind: faults.DropBoost, Target: 0, Severity: 1, Start: 0, End: span},
			{Kind: faults.NICOutage, Target: cfg.Nodes - 1, Start: 0, End: span / 2},
			{Kind: faults.BackplaneDegrade, Target: 0, Severity: 0.25, Start: 0, End: span},
		}})
	}
	// logs[lp] is only ever appended to by the LP's own worker (delivery
	// runs on the destination's LP), so the transcript needs no locking
	// even under -race.
	logs := make([][]string, net.NumLPs())
	net.SetDeliver(func(src, dst, payload int, st TransferStats) {
		lp := net.OwnerLP(dst)
		logs[lp] = append(logs[lp], fmt.Sprintf(
			"%d->%d bytes=%d sent=%v delivered=%v retries=%d cross=%v",
			src, dst, payload, st.Sent, st.Delivered, st.Retries, st.CrossSwitch))
	})
	traffic(net, cfg)
	end, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v windows=%d workers_independent=true\n", end, net.Windows())
	for i, lines := range logs {
		fmt.Fprintf(&b, "lp%d (%d deliveries)\n", i, len(lines))
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	fmt.Fprintf(&b, "counters=%+v\n", net.Counters())
	var m strings.Builder
	if err := net.MetricsSnapshot().WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	return b.String(), m.String(), net
}

func TestShardedByteIdenticalAcrossWorkers(t *testing.T) {
	// The PR's core acceptance: a sharded run's full observable output —
	// transcript, counters, merged metrics — is byte-identical at worker
	// counts 1, 2 and 4, healthy and faulted, single- and multi-rail.
	for _, tc := range []struct {
		spec       string
		withFaults bool
	}{
		{"fattree:32x8x2", false},
		{"fattree:32x8x2", true},
		{"fattree:32x8x2+2rail", false},
		{"dragonfly:4x2x4", false},
	} {
		serial := shardedRun(t, 11, 1, tc.spec, tc.withFaults)
		if !strings.Contains(serial, "deliveries") || strings.Contains(serial, "(0 deliveries)\nlp0") {
			t.Fatalf("%s: no transcript produced", tc.spec)
		}
		for _, workers := range []int{2, 4} {
			if got := shardedRun(t, 11, workers, tc.spec, tc.withFaults); got != serial {
				t.Errorf("%s faults=%v: workers=%d output differs from serial\n--- serial ---\n%s\n--- workers=%d ---\n%s",
					tc.spec, tc.withFaults, workers, serial, workers, got)
			}
		}
		if other := shardedRun(t, 12, 1, tc.spec, tc.withFaults); other == serial {
			t.Errorf("%s: different seeds produced identical output", tc.spec)
		}
	}
}

func TestShardedDeliverySemantics(t *testing.T) {
	cfg := shardedTopoConfig(t, "fattree:32x8x2")
	net, err := NewSharded(3, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	type delivery struct {
		src, dst int
		st       TransferStats
	}
	// Deliveries land on their destination's LP, which may run on any
	// worker: the shared slice needs a lock (classification below is
	// order-independent).
	var mu sync.Mutex
	var got []delivery
	net.SetDeliver(func(src, dst, payload int, st TransferStats) {
		mu.Lock()
		got = append(got, delivery{src, dst, st})
		mu.Unlock()
	})
	net.Engine(0).At(sim.Time(sim.Microsecond), func() {
		net.Send(0, 0, 1024)           // intra-node
		net.Send(0, 1, 1024)           // same leaf
		net.Send(0, cfg.Nodes-1, 1024) // cross leaf (last leaf)
	})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	var intra, sameLeaf, cross int
	for _, d := range got {
		switch {
		case d.src == d.dst:
			intra++
			if d.st.CrossSwitch {
				t.Error("intra-node delivery flagged cross-switch")
			}
		case net.OwnerLP(d.src) == net.OwnerLP(d.dst):
			sameLeaf++
			if d.st.CrossSwitch {
				t.Error("same-leaf delivery flagged cross-switch")
			}
		default:
			cross++
			if !d.st.CrossSwitch {
				t.Error("cross-leaf delivery not flagged cross-switch")
			}
		}
		if d.st.Delivered <= d.st.Sent {
			t.Errorf("%d->%d delivered %v not after sent %v", d.src, d.dst, d.st.Delivered, d.st.Sent)
		}
	}
	if intra != 1 || sameLeaf != 1 || cross != 1 {
		t.Errorf("deliveries: intra=%d sameLeaf=%d cross=%d, want 1 each", intra, sameLeaf, cross)
	}
	c := net.Counters()
	if c.Transfers != 3 || c.IntraNode != 1 || c.CrossSwitch != 1 {
		t.Errorf("counters = %+v, want Transfers=3 IntraNode=1 CrossSwitch=1", c)
	}
	if net.Windows() == 0 {
		t.Error("run executed no windows")
	}
	snap := net.MetricsSnapshot()
	if v, ok := snap.Counter("net", "transfers_total"); !ok || v != 3 {
		t.Errorf("merged transfers_total = %d (ok=%v), want 3", v, ok)
	}
	if v, ok := snap.Counter("net", "cross_switch_total"); !ok || v != 1 {
		t.Errorf("merged cross_switch_total = %d (ok=%v), want 1", v, ok)
	}
}

func TestShardedFaultRetries(t *testing.T) {
	// A total drop window on the destination forces cross-LP loss
	// notifications and RTO retries; once the window lifts the message
	// must still arrive, with Retries > 0.
	cfg := shardedTopoConfig(t, "fattree:32x8x2")
	net, err := NewSharded(5, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	window := sim.TimeFromSeconds(0.2)
	net.SetFaults(&faults.Schedule{Rules: []faults.Rule{
		{Kind: faults.DropBoost, Target: 9, Severity: 1, Start: 0, End: window},
	}})
	var st TransferStats
	delivered := 0
	net.SetDeliver(func(_, dst, _ int, s TransferStats) {
		if dst != 9 {
			t.Errorf("unexpected delivery to %d", dst)
		}
		delivered++
		st = s
	})
	net.Engine(0).At(sim.Time(sim.Microsecond), func() { net.Send(0, 9, 2048) })
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d messages, want 1", delivered)
	}
	if st.Retries == 0 {
		t.Error("transfer inside a total drop window reported zero retries")
	}
	if st.Delivered < window {
		t.Errorf("delivered at %v, before the drop window lifted at %v", st.Delivered, window)
	}
	c := net.Counters()
	if c.FaultDrops == 0 || c.Retries == 0 || c.FaultDrops > c.Retries {
		t.Errorf("counters = %+v, want 0 < FaultDrops <= Retries", c)
	}

	// A schedule whose rule binds nothing on this machine must panic.
	defer func() {
		if recover() == nil {
			t.Error("out-of-range fault rule accepted")
		}
	}()
	net.SetFaults(&faults.Schedule{Rules: []faults.Rule{
		{Kind: faults.BackplaneDegrade, Target: 10_000, Severity: 0.5, Start: 0, End: window},
	}})
}

// TestShardedLatencyIsSerialPlusCrossings checks the two cases of the
// one pipeline against each other exactly: with jitter off, one message
// on an idle network takes the serial latency plus one lookahead per LP
// crossing on its path. The crossings are counted from hop ownership.
func TestShardedLatencyIsSerialPlusCrossings(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		src, dst int
	}{
		{"fattree:64x16x2", 0, 40},
		{"fattree:64x16x2", 0, 5},
		{"dragonfly:4x2x4", 0, 5},
		{"dragonfly:4x2x4", 0, 30},
		{"dragonfly:4x2x4+2rail", 1, 30},
		{"tree:8x4x2", 0, 63},
		{"tree:8x4x2", 3, 3},
	} {
		cfg := shardedTopoConfig(t, tc.spec)
		cfg.JitterSigma, cfg.FabricJitter = 0, 0
		for _, size := range []int{0, 1460, 4096, 65536} {
			_, serial := oneTransfer(t, cfg, tc.src, tc.dst, size)
			net, err := NewSharded(1, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			var sharded TransferStats
			net.SetDeliver(func(_, _, _ int, st TransferStats) { sharded = st })
			net.Engine(net.OwnerLP(tc.src)).At(0, func() { net.Send(tc.src, tc.dst, size) })
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			crossings, at := 0, net.OwnerLP(tc.src)
			if tc.src != tc.dst {
				for _, h := range net.topo.PathHops(tc.src/cfg.PortsPerSwitch, tc.dst/cfg.PortsPerSwitch) {
					if owner := net.hopLP(h); owner != at {
						crossings, at = crossings+1, owner
					}
				}
			}
			want := serial.Delivered.Sub(serial.Sent) + sim.Duration(crossings)*net.lookahead
			t.Logf("%s %d->%d size %d: serial %v, %d crossings", tc.spec, tc.src, tc.dst, size, serial.Delivered.Sub(serial.Sent), crossings)
			if got := sharded.Delivered.Sub(sharded.Sent); got != want {
				t.Errorf("%s %d->%d size %d: sharded latency %v, want serial %v + %d crossings × %v",
					tc.spec, tc.src, tc.dst, size, got, serial.Delivered.Sub(serial.Sent), crossings, net.lookahead)
			}
			if sharded.CrossSwitch != serial.CrossSwitch {
				t.Errorf("%s %d->%d: CrossSwitch sharded %v, serial %v", tc.spec, tc.src, tc.dst, sharded.CrossSwitch, serial.CrossSwitch)
			}
		}
	}
}
