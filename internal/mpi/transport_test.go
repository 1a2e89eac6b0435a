package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestConnectionResequencing drives the transport's per-pair reorder
// buffer directly: packets handed to arrive() out of sequence order must
// be processed in sequence order (TCP in-order delivery with
// head-of-line blocking).
func TestConnectionResequencing(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	key := connKey{0, 1}
	conn := &connection{}

	var order []uint64
	mkPkt := func(seq uint64) *packet {
		env := &envelope{src: 0, dst: 1, ctx: ctxUser, tag: int(seq), size: 1}
		return &packet{key: key, conn: conn, kind: pktEager, seq: seq, env: env}
	}
	// Intercept handling by observing the unexpected queue after each
	// arrival; simpler: deliver and inspect rank 1's unexpected queue
	// (envelopes arrive in handled order).
	deliver := func(seq uint64) {
		w.arrive(mkPkt(seq))
		// Record newly handled envelopes.
		for len(order) < len(w.ranks[1].unexpected) {
			env := w.ranks[1].unexpected[len(order)]
			order = append(order, uint64(env.tag))
		}
	}
	deliver(2) // held: not in order
	if len(order) != 0 {
		t.Fatalf("out-of-order packet processed early: %v", order)
	}
	deliver(0) // releases 0 only
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("after seq 0: %v", order)
	}
	deliver(1) // releases 1 and the held 2
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("resequencing broken: %v", order)
	}
}

// TestRetransmissionPreservesOrder: saturate the network so retries
// occur, and verify per-pair delivery order survives end to end.
func TestRetransmissionPreservesOrder(t *testing.T) {
	w := worldWith(t, saturatingConfig(), 48, 1, 9)
	var got [][]any
	w.Launch(func(c *Comm) {
		const msgs = 6
		half := c.Size() / 2
		if c.Rank() < half {
			partner := c.Rank() + half
			for i := 0; i < msgs; i++ {
				c.Wait(c.IsendData(partner, 0, 30000, i))
			}
		} else {
			var seq []any
			for i := 0; i < msgs; i++ {
				seq = append(seq, c.Recv(c.Rank()-half, 0).Data)
			}
			got = append(got, seq)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if w.net.Stats().Retries == 0 {
		t.Skip("no retries triggered; ordering not exercised under loss")
	}
	for _, seq := range got {
		for i, v := range seq {
			if v != i {
				t.Fatalf("receiver saw %v, want in-order 0..%d", seq, len(seq)-1)
			}
		}
	}
}

// saturatingConfig makes drops very likely for bulk cross-switch bursts.
func saturatingConfig() cluster.Config {
	cfg := cluster.Perseus()
	cfg.StackBufferBytes = 65536
	cfg.RTO = 0.01 // keep the test fast
	return cfg
}

func TestWorldShutdownAfterHorizon(t *testing.T) {
	w := quietWorld(t, 4, 1, 1)
	w.Launch(func(c *Comm) {
		c.Compute(100) // far beyond the horizon
	})
	if _, err := w.Engine().Run(sim.TimeFromSeconds(1)); err != nil {
		t.Fatal(err)
	}
	w.Shutdown() // must release rank goroutines without deadlocking
}
