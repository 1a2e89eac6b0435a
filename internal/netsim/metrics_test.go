package netsim

import (
	"strconv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestMetricsMirrorCounters checks the exact counts Stats reports from
// the registry instruments on a mixed workload (intra-node, same-switch
// and cross-switch traffic), and the per-node and per-hop instruments
// beside them.
func TestMetricsMirrorCounters(t *testing.T) {
	cfg := quietPerseus()
	e := sim.NewEngine(1)
	n := New(e, cfg)
	n.Transfer(0, 0, 100, nil)  // intra-node
	n.Transfer(0, 1, 100, nil)  // same switch
	n.Transfer(0, 30, 100, nil) // cross switch
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}

	s := e.Metrics().Snapshot()
	get := func(name string, labels ...metrics.Label) uint64 {
		t.Helper()
		v, ok := s.Counter("net", name, labels...)
		if !ok {
			t.Fatalf("counter net/%s missing", name)
		}
		return v
	}
	want := Counters{Transfers: 3, IntraNode: 1, CrossSwitch: 1, WireBytes: uint64(2 * cfg.WireBytes(100))}
	if st := n.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	// Node 0 transmitted the two wire transfers (the intra-node copy
	// never touches the NIC).
	wantBytes := uint64(2 * cfg.WireBytes(100))
	if got := get("nic_tx_bytes_total", metrics.L("node", "0")); got != wantBytes {
		t.Errorf("nic_tx_bytes_total{node=0} = %d, want %d", got, wantBytes)
	}
	if got := get("nic_tx_frames_total", metrics.L("node", "0")); got != uint64(2*cfg.Frames(100)) {
		t.Errorf("nic_tx_frames_total{node=0} = %d, want %d", got, 2*cfg.Frames(100))
	}
	// Same-switch: ingress fabric only (1 hop). Cross-switch on Perseus
	// (nodes 0 and 30 are on switches 0 and 1): ingress + 1 segment +
	// egress = 3 hops.
	if got := get("store_forward_hops_total"); got != 4 {
		t.Errorf("store_forward_hops_total = %d, want 4", got)
	}
}

// TestDropAccountingReconciles saturates the backplane and checks the
// drop ledger: every retry is exactly one congestion or fault drop, and
// the RTO histogram has one observation per retry.
//
// The traffic pattern matters: one ingress fabric alone cannot overload
// a stacking segment (the 2.1 Gbit/s fabric paces below the stack
// rate), so senders on switches 0 AND 1 all target switch 2 — their
// flows converge on segment 1 at twice what it can carry.
func TestDropAccountingReconciles(t *testing.T) {
	cfg := quietPerseus()
	e := sim.NewEngine(2)
	n := New(e, cfg)
	for i := 0; i < 20; i++ {
		for k := 0; k < 10; k++ {
			n.Transfer(i, 48+(i%24), 65536, nil)    // switch 0 -> switch 2
			n.Transfer(24+i, 48+(i%24), 65536, nil) // switch 1 -> switch 2
		}
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	s := e.Metrics().Snapshot()
	retries, _ := s.Counter("net", "retries_total")
	cong, _ := s.Counter("net", "drops_congestion_total")
	fault, _ := s.Counter("net", "drops_fault_total")
	if retries == 0 {
		t.Fatal("saturation produced no retries; test premise broken")
	}
	if cong+fault != retries {
		t.Errorf("drop ledger does not reconcile: congestion %d + fault %d != retries %d",
			cong, fault, retries)
	}
	if fault != 0 {
		t.Errorf("healthy run recorded %d fault drops", fault)
	}
	h, ok := s.Histogram("net", "rto_backoff_depth")
	if !ok {
		t.Fatal("rto_backoff_depth histogram missing")
	}
	if h.Count != retries {
		t.Errorf("rto histogram has %d observations, want %d (one per retry)", h.Count, retries)
	}
	// The saturated stacking segment must have recorded a peak backlog
	// at least at the drop threshold.
	found := false
	for seg := 0; seg < n.topo.NumSegments(); seg++ {
		if v, ok := s.Gauge("net", "segment_backlog_ns_max", metrics.L("segment", strconv.Itoa(seg))); ok && v > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no segment recorded a positive peak backlog under saturation")
	}
}
