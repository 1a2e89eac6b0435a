package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestTransferConservationProperty: every transfer is delivered exactly
// once with Delivered > Sent, regardless of traffic mix — including
// under saturation with retries.
func TestTransferConservationProperty(t *testing.T) {
	cfg := cluster.Perseus()
	f := func(seed uint64, countRaw, sizeRaw uint16) bool {
		count := 1 + int(countRaw%200)
		e := sim.NewEngine(seed)
		n := New(e, cfg)
		r := sim.NewRNG(seed)
		delivered := 0
		bad := false
		for i := 0; i < count; i++ {
			src := r.Intn(cfg.Nodes)
			dst := r.Intn(cfg.Nodes)
			size := r.Intn(1 + int(sizeRaw)*4)
			n.Transfer(src, dst, size, func(ts TransferStats) {
				delivered++
				if ts.Delivered <= ts.Sent {
					// Even a zero-byte intra-node transfer pays latency;
					// equality would be a pipeline bug.
					bad = true
				}
			})
		}
		if _, err := e.Run(sim.Forever); err != nil {
			return false
		}
		return delivered == count && !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSerializerNeverOverlapsProperty: arbitrary interleavings of
// enqueues never produce overlapping service intervals, and each
// request's callback runs at the end time Enqueue returned.
func TestSerializerNeverOverlapsProperty(t *testing.T) {
	f := func(seed uint64, servicesRaw [8]uint16) bool {
		e := sim.NewEngine(seed)
		s := sim.NewSerializer(e)
		type iv struct{ start, end sim.Time }
		var ivs []iv
		completions := 0
		for i, raw := range servicesRaw {
			delay := sim.Duration(i) * 100 * sim.Microsecond
			service := sim.Duration(raw) * sim.Microsecond
			e.Schedule(delay, func() {
				var end sim.Time
				end = s.Enqueue(service, func() {
					if e.Now() == end {
						completions++
					}
				})
				if start := end.Add(-service); start >= e.Now() {
					ivs = append(ivs, iv{start, end})
				}
			})
		}
		if _, err := e.Run(sim.Forever); err != nil {
			return false
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return false
			}
		}
		return len(ivs) == len(servicesRaw) && completions == len(servicesRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
