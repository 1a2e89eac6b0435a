package mpi

import (
	"math"
	"runtime/debug"
	"testing"
)

// messageAllocs counts the allocations of one whole job, World
// construction included, whose ranks each run body iterations times.
// Two such counts at different iteration counts differ by what the
// extra iterations allocate once the World is warm. The collector is
// off while it counts: a collection empties the runtime's sync.Pools
// (fmt's printers among them), and refilling them would add an
// allocation or two wherever a cycle happened to fall.
func messageAllocs(t *testing.T, ranks, iterations int, body func(c *Comm)) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() {
		w := quietWorld(t, ranks, 1, 1)
		w.Launch(func(c *Comm) {
			for i := 0; i < iterations; i++ {
				body(c)
			}
		})
		if _, err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMessageAllocs guards the MPI layer's per-message state: requests
// and envelopes come from the World's free lists, so once a World is
// warm a blocking call or a collective allocates nothing, at eager and
// at rendezvous sizes. A job of 2k iterations must cost no more than
// one of k, whose iterations warm the free lists. The requests Isend
// and Irecv hand to their caller stay allocations unless the caller
// hands them back with Free.
func TestMessageAllocs(t *testing.T) {
	const k = 50
	slack := 0.0
	if raceEnabled {
		// The pools outside the MPI layer (fmt's printers among them)
		// refill a varying number of times when sync.Pool drops items.
		slack = 8
	}
	calls := []struct {
		name  string
		ranks int
		body  func(c *Comm, size int)
	}{
		{"Send/Recv", 2, func(c *Comm, size int) {
			if c.Rank() == 0 {
				c.Send(1, 0, size)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.SendData(0, 1, size, nil)
			}
		}},
		{"Sendrecv", 2, func(c *Comm, size int) {
			peer := 1 - c.Rank()
			c.Sendrecv(peer, 0, size, peer, 0)
		}},
		{"Isend+Irecv+Waitall+Free", 2, func(c *Comm, size int) {
			peer := 1 - c.Rank()
			rr := c.Irecv(peer, 0)
			sr := c.Isend(peer, 0, size)
			c.Waitall(sr, rr)
			c.Free(sr, rr)
		}},
		{"Irecv+Send+Wait+Free", 2, func(c *Comm, size int) {
			peer := 1 - c.Rank()
			rr := c.Irecv(peer, 0)
			c.Send(peer, 0, size)
			c.Wait(rr)
			c.Free(rr)
		}},
		// An eager rooted collective does not synchronise its ranks:
		// repeated alone, a root outruns its receivers and their
		// unexpected queues grow without bound. A Barrier after each
		// call keeps the messages in flight bounded, as MPIBench's
		// barriers do between repetitions.
		{"Barrier", 5, func(c *Comm, _ int) { c.Barrier() }},
		{"Bcast", 5, func(c *Comm, size int) { c.Bcast(1, size); c.Barrier() }},
		{"Reduce", 5, func(c *Comm, size int) { c.Reduce(2, size); c.Barrier() }},
		{"Allreduce", 5, func(c *Comm, size int) { c.Allreduce(size); c.Barrier() }},
		{"Gather", 5, func(c *Comm, size int) { c.Gather(0, size); c.Barrier() }},
		{"Scatter", 5, func(c *Comm, size int) { c.Scatter(0, size); c.Barrier() }},
		{"Allgather", 5, func(c *Comm, size int) { c.Allgather(size) }},
		{"Alltoall", 5, func(c *Comm, size int) { c.Alltoall(size) }},
	}
	for _, size := range []int{1024, 64 << 10} { // eager, rendezvous
		for _, call := range calls {
			body := func(c *Comm) { call.body(c, size) }
			short := messageAllocs(t, call.ranks, k, body)
			long := messageAllocs(t, call.ranks, 2*k, body)
			if long > short+slack {
				t.Errorf("%s of %d B: %.0f allocations at %d iterations, %.0f at %d; a warm World must allocate nothing per call",
					call.name, size, short, k, long, 2*k)
			}
		}
	}

	// A nonblocking exchange hands both its requests to the caller, so
	// it costs exactly those two, and nothing per envelope.
	for _, size := range []int{1024, 64 << 10} {
		body := func(c *Comm) {
			peer := 1 - c.Rank()
			rr := c.Irecv(peer, 0)
			sr := c.Isend(peer, 0, size)
			c.Waitall(sr, rr)
		}
		short := messageAllocs(t, 2, k, body)
		long := messageAllocs(t, 2, 2*k, body)
		if got, want := long-short, float64(2*2*k); math.Abs(got-want) > slack {
			t.Errorf("Isend+Irecv+Waitall of %d B: %d more exchanges on each of 2 ranks cost %.0f allocations, want %.0f (two requests each)",
				size, k, got, want)
		}
	}
}
