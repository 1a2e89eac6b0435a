package mpi

import (
	"testing"

	"repro/internal/metrics"
)

// TestProtocolSplitMetrics checks the eager/rendezvous classification
// and the byte ledger against the configured eager limit.
func TestProtocolSplitMetrics(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	limit := w.net.Config().EagerLimit
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, 100)     // eager
			c.Send(1, 2, limit)   // eager (at the limit)
			c.Send(1, 3, limit+1) // rendezvous
			c.Send(1, 4, 4*limit) // rendezvous
		case 1:
			for tag := 1; tag <= 4; tag++ {
				c.Recv(0, tag)
			}
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	s := w.e.Metrics().Snapshot()
	if v, _ := s.Counter("mpi", "sends_eager_total"); v != 2 {
		t.Errorf("sends_eager_total = %d, want 2", v)
	}
	if v, _ := s.Counter("mpi", "sends_rendezvous_total"); v != 2 {
		t.Errorf("sends_rendezvous_total = %d, want 2", v)
	}
	want := uint64(100 + limit + limit + 1 + 4*limit)
	if v, _ := s.Counter("mpi", "send_bytes_total"); v != want {
		t.Errorf("send_bytes_total = %d, want %d", v, want)
	}
}

// TestUnexpectedQueueHighWater sends several eager messages before the
// receiver posts anything, so they all queue as unexpected.
func TestUnexpectedQueueHighWater(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for tag := 1; tag <= 5; tag++ {
				c.Send(1, tag, 64)
			}
		case 1:
			c.Compute(0.1) // long enough for all five to arrive
			for tag := 5; tag >= 1; tag-- {
				c.Recv(0, tag)
			}
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	s := w.e.Metrics().Snapshot()
	if v, _ := s.Gauge("mpi", "unexpected_queue_max"); v != 5 {
		t.Errorf("unexpected_queue_max = %d, want 5", v)
	}
}

// TestCollectiveMetrics checks per-operation call and byte counters,
// including Allreduce's composition: it counts under its own label AND
// its constituent Reduce and Bcast tick too.
func TestCollectiveMetrics(t *testing.T) {
	const ranks = 4
	w := quietWorld(t, ranks, 1, 1)
	w.Launch(func(c *Comm) {
		c.Barrier()
		c.Bcast(0, 1000)
		c.Allreduce(500)
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	s := w.e.Metrics().Snapshot()
	calls := func(op string) uint64 {
		v, _ := s.Counter("mpi", "collective_calls_total", metrics.L("op", op))
		return v
	}
	bytes := func(op string) uint64 {
		v, _ := s.Counter("mpi", "collective_bytes_total", metrics.L("op", op))
		return v
	}
	if calls("Barrier") != ranks {
		t.Errorf("Barrier calls = %d, want %d (one per rank)", calls("Barrier"), ranks)
	}
	if calls("Bcast") != 2*ranks { // explicit Bcast + Allreduce's internal one
		t.Errorf("Bcast calls = %d, want %d", calls("Bcast"), 2*ranks)
	}
	if calls("Allreduce") != ranks || calls("Reduce") != ranks {
		t.Errorf("Allreduce/Reduce calls = %d/%d, want %d each",
			calls("Allreduce"), calls("Reduce"), ranks)
	}
	if bytes("Bcast") != uint64(ranks*(1000+500)) {
		t.Errorf("Bcast bytes = %d, want %d", bytes("Bcast"), ranks*(1000+500))
	}
	if bytes("Allreduce") != uint64(ranks*500) {
		t.Errorf("Allreduce bytes = %d, want %d", bytes("Allreduce"), ranks*500)
	}
}

// TestResumesPerOperation: a rank is switched in once per collective,
// whatever its steps, twice per Allreduce (a Reduce, then a Bcast), and
// once per Waitall of two receives, whether it blocked for the messages
// or they had arrived (sim/proc_resumes_total counts the switches).
func TestResumesPerOperation(t *testing.T) {
	resumes := func(ranks int, program func(c *Comm)) uint64 {
		t.Helper()
		w := quietWorld(t, ranks, 1, 1)
		w.Launch(program)
		if _, err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		v, ok := w.e.Metrics().Snapshot().Counter("sim", "proc_resumes_total")
		if !ok {
			t.Fatal("sim/proc_resumes_total is not registered")
		}
		return v
	}
	const ranks, calls = 8, 5
	for _, op := range []struct {
		name string
		call func(c *Comm)
		per  int // resumes per call
	}{
		{"Barrier", (*Comm).Barrier, 1},
		{"Allgather", func(c *Comm) { c.Allgather(64 << 10) }, 1},
		{"Alltoall", func(c *Comm) { c.Alltoall(1024) }, 1},
		{"Bcast", func(c *Comm) { c.Bcast(3, 64<<10) }, 1},
		{"Reduce", func(c *Comm) { c.Reduce(0, 1024) }, 1},
		{"Gather", func(c *Comm) { c.Gather(7, 1024) }, 1},
		{"Scatter", func(c *Comm) { c.Scatter(0, 64<<10) }, 1},
		{"Allreduce", func(c *Comm) { c.Allreduce(1024) }, 2},
	} {
		got := resumes(ranks, func(c *Comm) {
			for i := 0; i < calls; i++ {
				op.call(c)
			}
		})
		// Every rank is resumed once to start it.
		if want := uint64(ranks * (1 + op.per*calls)); got != want {
			t.Errorf("%d calls of %s on %d ranks: %d resumes, want %d", calls, op.name, ranks, got, want)
		}
	}
	for _, arrived := range []bool{false, true} {
		got := resumes(2, func(c *Comm) {
			if c.Rank() == 1 {
				c.Send(0, 0, 1024)
				c.Send(0, 1, 1024)
				return
			}
			if arrived {
				c.Compute(0.01)
			}
			c.Waitall(c.Irecv(1, 0), c.Irecv(1, 1))
		})
		// Rank 1: its start and each send's host cost (an eager send's
		// Wait returns without a switch). Rank 0: its start, its
		// compute segment if any, and the Waitall.
		want := uint64(1 + 2 + 1 + 1)
		if arrived {
			want++
		}
		if got != want {
			t.Errorf("Waitall of two receives (arrived before the wait: %v): %d resumes, want %d", arrived, got, want)
		}
	}
}
