package netsim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

var (
	updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pin.golden")
	pinDump      = flag.String("pin-dump", "", "write every pinned case's full text into this directory")
)

// pinGolden holds one line per pinned case: a hash of everything the
// case delivered and a hash of its metrics snapshot. Rewrite it only on
// purpose, with
// go test ./internal/netsim -run TestNetworkPin -update-golden.
const pinGolden = "testdata/pin.golden"

// pinSizes spans empty, one-frame, frame-boundary, eager-knee and
// multi-frame payloads.
var pinSizes = []int{0, 1, 1460, 1461, 4096, 16384, 65536}

// pinReceiver logs deliveries that arrive through TransferTo.
type pinReceiver struct {
	log               *strings.Builder
	src, dst, payload int
}

func (r *pinReceiver) Deliver(st TransferStats) { pinLogDelivery(r.log, r.src, r.dst, r.payload, st) }

func pinLogDelivery(b *strings.Builder, src, dst, payload int, st TransferStats) {
	fmt.Fprintf(b, "%d->%d bytes=%d sent=%d delivered=%d retries=%d cross=%v\n",
		src, dst, payload, int64(st.Sent), int64(st.Delivered), st.Retries, st.CrossSwitch)
}

// pinFaults degrades the machine with all four network fault kinds.
func pinFaults(nodes int) *faults.Schedule {
	span := sim.TimeFromSeconds(0.05)
	return &faults.Schedule{Name: "pin", Rules: []faults.Rule{
		{Kind: faults.NICOutage, Target: 1, Start: 0, End: span / 10},
		{Kind: faults.DropBoost, Target: 2, Severity: 0.3, Start: 0, End: span},
		{Kind: faults.LinkDegrade, Target: nodes - 1, Severity: 0.5, Start: 0, End: span},
		{Kind: faults.BackplaneDegrade, Target: 0, Severity: 0.25, Start: 0, End: span},
	}}
}

// serialPin runs mixed traffic on the serial Network and returns the
// delivery text (every TransferStats and retry in event order, Stats and
// UtilizationSince) and the engine's metrics snapshot. Every node sends
// to itself, to a same-switch neighbour, one switch up and one down the
// chain and half the machine away; then every node sends 64 KB to node 0
// and to the last node, which congests the ports, fabrics and segments
// on the way into drops.
func serialPin(t *testing.T, cfg cluster.Config, withFaults bool) (delivery, metricsText string, c Counters) {
	t.Helper()
	e := sim.NewEngine(17)
	n := New(e, cfg)
	if withFaults {
		n.SetFaults(pinFaults(cfg.Nodes))
	}
	var b strings.Builder
	n.SetRetryObserver(func(src, dst, try int, rto float64) {
		fmt.Fprintf(&b, "retry %d->%d try=%d rto=%v\n", src, dst, try, rto)
	})
	sends := 0
	send := func(src, dst, size int) {
		switch sends % 3 {
		case 0:
			n.Transfer(src, dst, size, func(st TransferStats) { pinLogDelivery(&b, src, dst, size, st) })
		case 1:
			n.TransferTo(src, dst, size, &pinReceiver{log: &b, src: src, dst: dst, payload: size})
		default:
			n.Transfer(src, dst, size, nil)
		}
		sends++
	}
	nodes, ports := cfg.Nodes, cfg.PortsPerSwitch
	for i := 0; i < nodes; i++ {
		src := i
		e.At(sim.Time(i+1)*sim.Time(sim.Microsecond), func() {
			neighbour := src/ports*ports + (src+1)%ports
			if neighbour >= nodes {
				neighbour = src
			}
			send(src, src, pinSizes[src%len(pinSizes)])
			send(src, neighbour, pinSizes[(src+1)%len(pinSizes)])
			send(src, (src+ports)%nodes, pinSizes[(src+2)%len(pinSizes)])
			send(src, (src+nodes-ports)%nodes, pinSizes[(src+3)%len(pinSizes)])
			send(src, (src+nodes/2)%nodes, pinSizes[(src+4)%len(pinSizes)])
		})
		e.At(sim.TimeFromSeconds(0.002)+sim.Time(i), func() {
			send(src, 0, 65536)
			send(src, nodes-1, 65536)
		})
	}
	if _, err := e.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	c = n.Stats()
	fmt.Fprintf(&b, "stats=%+v\nutil=%+v\n", c, n.UtilizationSince(0))
	var m strings.Builder
	if err := e.Metrics().Snapshot().WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	return b.String(), m.String(), c
}

// congestedTraffic sends four 64 KB messages from every node to the same
// port of the next leaf at once: the spine carries both directions and
// congests, so drops happen on the core LP and their loss notifications
// cross back to the senders' LPs.
func congestedTraffic(net *ShardedNet, cfg cluster.Config) {
	for node := 0; node < cfg.Nodes; node++ {
		src := node
		dst := (src + cfg.Topo.LeafPorts) % cfg.Nodes
		net.Engine(net.OwnerLP(src)).At(sim.Time(sim.Microsecond)+sim.Time(src), func() {
			for k := 0; k < 4; k++ {
				net.Send(src, dst, 65536)
			}
		})
	}
}

type pinCase struct {
	name string
	run  func(t *testing.T) (delivery, metricsText string)
}

func pinCases() []pinCase {
	var cases []pinCase
	for _, spec := range []string{"", "fattree:64x16x4", "dragonfly:4x2x4+2rail", "tree:8x4x2"} {
		for _, withFaults := range []bool{false, true} {
			spec, withFaults := spec, withFaults
			name := "serial/" + spec
			if spec == "" {
				name = "serial/perseus"
			}
			if withFaults {
				name += "/faults"
			}
			cases = append(cases, pinCase{name, func(t *testing.T) (string, string) {
				cfg := cluster.Perseus()
				if spec != "" {
					cfg = shardedTopoConfig(t, spec)
				}
				d, m, c := serialPin(t, cfg, withFaults)
				if c.Retries <= c.FaultDrops {
					t.Errorf("%s: no congestion drops (%+v)", name, c)
				}
				if withFaults && c.FaultDrops == 0 {
					t.Errorf("%s: no fault drops (%+v)", name, c)
				}
				return d, m
			}})
		}
	}
	for _, tc := range []struct {
		spec       string
		withFaults bool
	}{
		{"fattree:32x8x2", false},
		{"fattree:32x8x2", true},
		{"fattree:32x8x2+2rail", false},
		{"dragonfly:4x2x4", false},
	} {
		tc := tc
		name := "sharded/" + tc.spec
		if tc.withFaults {
			name += "/faults"
		}
		cases = append(cases, pinCase{name, func(t *testing.T) (string, string) {
			d, m, _ := shardedOutput(t, 11, 1, tc.spec, tc.withFaults, mixedTraffic)
			return d, m
		}})
	}
	cases = append(cases, pinCase{"sharded/fattree:64x32x1/congested", func(t *testing.T) (string, string) {
		d, m, net := shardedOutput(t, 11, 1, "fattree:64x32x1", false, congestedTraffic)
		core := net.Engine(net.NumLPs() - 1).Metrics().Snapshot()
		if drops, _ := core.Counter("net", "drops_congestion_total"); drops == 0 {
			t.Error("congested case dropped nothing on the core LP")
		}
		return d, m
	}})
	return cases
}

// TestNetworkPin holds both network models to the outputs recorded in
// testdata/pin.golden: serial runs on the flat chain and three
// hierarchical topologies, healthy and under every network fault kind,
// and sharded runs including one whose drops happen on the core LP.
func TestNetworkPin(t *testing.T) {
	var got strings.Builder
	for _, c := range pinCases() {
		d, m := c.run(t)
		ds, ms := sha256.Sum256([]byte(d)), sha256.Sum256([]byte(m))
		fmt.Fprintf(&got, "%s delivery=%x metrics=%x\n", c.name, ds[:8], ms[:8])
		if *pinDump != "" {
			base := filepath.Join(*pinDump, strings.NewReplacer("/", "_", ":", "_", "+", "_").Replace(c.name))
			if err := os.WriteFile(base+".delivery", []byte(d), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(base+".metrics", []byte(m), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(pinGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinGolden)
	if err != nil {
		t.Fatalf("%v (write it with -update-golden)", err)
	}
	if got.String() != string(want) {
		t.Errorf("network outputs moved from %s (rewrite only on purpose with -update-golden)\n--- want ---\n%s--- got ---\n%s",
			pinGolden, want, got.String())
	}
}
