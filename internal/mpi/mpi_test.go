package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// quietWorld builds a world with deterministic (noise-free) timing.
func quietWorld(t *testing.T, nodes, perNode int, seed uint64) *World {
	t.Helper()
	cfg := cluster.Perseus()
	cfg.JitterSigma = 0
	cfg.SpikeProb = 0
	return worldWith(t, cfg, nodes, perNode, seed)
}

func worldWith(t *testing.T, cfg cluster.Config, nodes, perNode int, seed uint64) *World {
	t.Helper()
	e := sim.NewEngine(seed)
	net := netsim.New(e, cfg)
	pl, err := cluster.NewPlacement(&cfg, nodes, perNode)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(e, net, pl)
	w.SetComputeModel(cluster.ComputeModel{})
	return w
}

func TestSendRecvCarriesData(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	var got Status
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendData(1, 7, 100, "payload")
		case 1:
			got = c.Recv(0, 7)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if got.Source != 0 || got.Tag != 7 || got.Size != 100 || got.Data != "payload" {
		t.Errorf("status = %+v", got)
	}
}

func TestEagerSendIsBuffered(t *testing.T) {
	// An eager (small) send must complete locally even though the
	// receiver posts its receive much later.
	w := quietWorld(t, 2, 1, 1)
	var sendDone, recvDone sim.Time
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 1024)
			sendDone = c.Now()
		case 1:
			c.Compute(1.0) // busy for a full second first
			c.Recv(0, 0)
			recvDone = c.Now()
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if sendDone.Seconds() > 0.01 {
		t.Errorf("eager send blocked until %v", sendDone)
	}
	if recvDone.Seconds() < 1.0 {
		t.Errorf("receive completed at %v, before the receiver was ready", recvDone)
	}
}

func TestRendezvousSendBlocksForReceiver(t *testing.T) {
	// A rendezvous (large) send cannot complete until the receiver posts
	// a matching receive.
	w := quietWorld(t, 2, 1, 1)
	var sendDone sim.Time
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 65536)
			sendDone = c.Now()
		case 1:
			c.Compute(1.0)
			c.Recv(0, 0)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if sendDone.Seconds() < 1.0 {
		t.Errorf("rendezvous send completed at %v, before the receive was posted", sendDone)
	}
}

func TestEagerBelowLimitRendezvousAtLimit(t *testing.T) {
	cfg := cluster.Perseus()
	for _, tc := range []struct {
		size       int
		rendezvous bool
	}{
		{cfg.EagerLimit - 1, false},
		{cfg.EagerLimit, false}, // the paper's knee sits at 16 KB: the last eager size
		{cfg.EagerLimit + 1, true},
	} {
		w := quietWorld(t, 2, 1, 1)
		var sendDone sim.Time
		w.Launch(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Send(1, 0, tc.size)
				sendDone = c.Now()
			case 1:
				c.Compute(0.5)
				c.Recv(0, 0)
			}
		})
		if _, err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		blocked := sendDone.Seconds() >= 0.5
		if blocked != tc.rendezvous {
			t.Errorf("size %d: blocked=%v, want rendezvous=%v", tc.size, blocked, tc.rendezvous)
		}
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	var order []any
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				c.SendData(1, 3, 64, i)
			}
		case 1:
			for i := 0; i < 5; i++ {
				order = append(order, c.Recv(0, 3).Data)
			}
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("messages overtook: %v", order)
		}
	}
}

func TestMixedSizesStayOrdered(t *testing.T) {
	// A big (rendezvous) message followed by a tiny (eager) one on the
	// same tag must still be received in send order.
	w := quietWorld(t, 2, 1, 1)
	var order []any
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			r1 := c.IsendData(1, 0, 100000, "big")
			r2 := c.IsendData(1, 0, 16, "small")
			c.Waitall(r1, r2)
		case 1:
			order = append(order, c.Recv(0, 0).Data)
			order = append(order, c.Recv(0, 0).Data)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("order = %v", order)
	}
}

func TestWildcards(t *testing.T) {
	w := quietWorld(t, 3, 1, 1)
	var fromAny, anyTag Status
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			fromAny = c.Recv(AnySource, 5)
			anyTag = c.Recv(2, AnyTag)
		case 1:
			c.SendData(0, 5, 10, "from1")
		case 2:
			c.Compute(0.1)
			c.SendData(0, 9, 10, "from2")
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if fromAny.Source != 1 || fromAny.Data != "from1" {
		t.Errorf("AnySource recv got %+v", fromAny)
	}
	if anyTag.Tag != 9 || anyTag.Data != "from2" {
		t.Errorf("AnyTag recv got %+v", anyTag)
	}
}

func TestTagSelectivity(t *testing.T) {
	// A receive for tag 2 must skip an earlier tag-1 message.
	w := quietWorld(t, 2, 1, 1)
	var first, second Status
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendData(1, 1, 10, "one")
			c.SendData(1, 2, 10, "two")
		case 1:
			first = c.Recv(0, 2)
			second = c.Recv(0, 1)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if first.Data != "two" || second.Data != "one" {
		t.Errorf("tag matching broken: %v, %v", first.Data, second.Data)
	}
}

func TestSendrecvExchangeNoDeadlock(t *testing.T) {
	// Pairwise blocking exchange of rendezvous-size messages would
	// deadlock with plain Send/Recv; Sendrecv must not.
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		other := 1 - c.Rank()
		st := c.Sendrecv(other, 0, 50000, other, 0)
		if st.Size != 50000 {
			t.Errorf("rank %d got size %d", c.Rank(), st.Size)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		c.Recv(1-c.Rank(), 0) // both receive, nobody sends
	})
	_, err := w.Wait()
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	w.Shutdown()
}

func TestPingPongTimingSane(t *testing.T) {
	// A 2×1 ping-pong of 1 KB messages: the per-hop time must be in the
	// couple-hundred-microsecond range the paper shows for Perseus.
	w := quietWorld(t, 2, 1, 1)
	const reps = 100
	var elapsed sim.Duration
	w.Launch(func(c *Comm) {
		start := c.Now()
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, 1024)
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Send(0, 0, 1024)
			}
		}
		if c.Rank() == 0 {
			elapsed = c.Now().Sub(start)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	oneWay := elapsed.Seconds() / (2 * reps)
	if oneWay < 150e-6 || oneWay > 450e-6 {
		t.Errorf("1KB one-way time = %.1f µs, want 150-450 µs on simulated Perseus", oneWay*1e6)
	}
}

func TestValidationPanics(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		if c.Rank() != 0 {
			c.Recv(0, 0)
			return
		}
		for _, tc := range []struct {
			name string
			f    func()
			want string
		}{
			{"bad dst", func() { c.Send(5, 0, 10) }, "mpi: rank 0: Isend to peer 5 out of range [0,2)"},
			{"negative tag", func() { c.Send(1, -1, 10) }, "mpi: rank 0: send tag -1 must be non-negative"},
			{"bad size", func() { c.Send(1, 0, -10) }, "mpi: rank 0: negative message size -10"},
			{"bad src", func() { c.Recv(7, 0) }, "mpi: rank 0: Irecv from peer 7 out of range [0,2)"},
			{"foreign wait", func() { new(Comm).Wait(c.Irecv(1, 9)) }, "mpi: Wait on a request from another rank"},
			{"bad root", func() { c.Gather(2, 10) }, "mpi: rank 0: Gather root peer 2 out of range [0,2)"},
			// Rank 0 only receives in a Bcast rooted at rank 1: the size
			// is checked on entry, not by the send it never makes.
			{"bad tree size", func() { c.Bcast(1, -10) }, "mpi: rank 0: negative message size -10"},
		} {
			func() {
				defer func() {
					if got := recover(); got != tc.want {
						t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
					}
				}()
				tc.f()
			}()
		}
		c.Send(1, 0, 10)
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchTwicePanics(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on second Launch")
		}
	}()
	w.Launch(func(c *Comm) {})
}

func TestDeterministicExecution(t *testing.T) {
	run := func(seed uint64) sim.Time {
		w := worldWith(t, cluster.Perseus(), 8, 2, seed)
		w.Launch(func(c *Comm) {
			for i := 0; i < 10; i++ {
				other := (c.Rank() + c.Size()/2) % c.Size()
				c.Sendrecv(other, 0, 2048, other, 0)
			}
		})
		end, err := w.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(42), run(42); a != b {
		t.Errorf("same seed, different end times: %v vs %v", a, b)
	}
	if a, c := run(42), run(43); a == c {
		t.Error("different seeds gave identical end times (suspicious)")
	}
}

func TestFinishTimes(t *testing.T) {
	w := quietWorld(t, 4, 1, 1)
	w.Launch(func(c *Comm) {
		c.Compute(float64(c.Rank()) * 0.1)
	})
	end, err := w.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ft := w.FinishTimes()
	if len(ft) != 4 {
		t.Fatalf("FinishTimes len = %d", len(ft))
	}
	for i := 1; i < 4; i++ {
		if ft[i] <= ft[i-1] {
			t.Errorf("rank %d finished at %v, not after rank %d (%v)", i, ft[i], i-1, ft[i-1])
		}
	}
	if end != ft[3] {
		t.Errorf("Wait returned %v, last finish %v", end, ft[3])
	}
}

// TestDeadlockNamesPendingSend: two ranks each Send a rendezvous message
// to the other and never receive, so both park in Wait on their send.
// The deadlock error must name each pending send's peer, tag and size.
func TestDeadlockNamesPendingSend(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		c.Send(1-c.Rank(), 0, 64<<10)
	})
	_, err := w.Wait()
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	defer w.Shutdown()
	for _, want := range []string{
		"Wait(send to 1 tag 0 size 65536)",
		"Wait(send to 0 tag 0 size 65536)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not name %s", err, want)
		}
	}
}

// TestFreeValidationPanics: Free refuses a request that is pending, one
// that completed but was never waited for, one of another rank and one
// already freed, and accepts the same requests once waited.
func TestFreeValidationPanics(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	w.Launch(func(c *Comm) {
		if c.Rank() != 0 {
			c.Recv(0, 6)
			c.Send(0, 5, 10)
			return
		}
		rr := c.Irecv(1, 5)
		sr := c.Isend(1, 6, 10) // eager: complete at once, not yet waited
		panics := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}
		panics("pending", func() { c.Free(rr) })
		panics("complete, not waited", func() { c.Free(sr) })
		panics("another rank's", func() { new(Comm).Free(sr) })
		c.Waitall(sr, rr)
		c.Free(sr, rr)
		panics("freed twice", func() { c.Free(sr) })
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}
