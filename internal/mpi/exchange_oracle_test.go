package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The exchange-round collectives (Barrier, Allgather, Alltoall) run their
// rounds inside the rank's wait state, in event context. The oracle below
// is the loop they replaced: the rank's own process runs each round,
// sleeping its send's host cost in isend, blocking on a plain reason
// until both requests complete, then charging them and sleeping the
// receive's host cost. Both must make every engine call, random draw
// and trace record at the same position.

// oracleWait is a plain BlockReasoner naming the first pending request,
// as the wait state does; it is no sim.Waiter, so every wakeup switches
// into the rank.
type oracleWait []*Request

func (o oracleWait) BlockReason() string {
	for _, r := range o {
		if !r.done {
			return r.BlockReason()
		}
	}
	return "Wait"
}

// oracleExchange is one round run by the rank's own process.
func oracleExchange(c *Comm, dst, src, tag, size int) {
	sr := c.isend(ctxCollective, dst, tag, size, nil)
	rr := c.irecv(ctxCollective, src, tag)
	for !sr.done || !rr.done {
		c.proc.BlockOn(oracleWait{sr, rr})
	}
	c.chargeSend(sr)
	c.proc.Sleep(c.chargeRecv(rr))
	c.recvEnd(rr)
	c.w.releaseRequest(sr)
	c.w.releaseRequest(rr)
}

func oracleBarrier(c *Comm) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, 0, "Barrier")
	c.w.collMetric(tagBarrier, 0)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, 0, "Barrier")
	p := c.Size()
	if p == 1 {
		return
	}
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k%p + p) % p
		oracleExchange(c, dst, src, tagBarrier, 0)
	}
}

func oracleAllgather(c *Comm, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Allgather")
	c.w.collMetric(tagAllgather, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Allgather")
	p := c.Size()
	if p == 1 {
		return
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		oracleExchange(c, right, left, tagAllgather, size)
	}
}

func oracleAlltoall(c *Comm, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Alltoall")
	c.w.collMetric(tagAlltoall, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Alltoall")
	p := c.Size()
	if p == 1 {
		return
	}
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		oracleExchange(c, dst, src, tagAlltoall, size)
	}
}

// exchangeRun is one run of a collective program: its trace log as
// (rank, time, kind, peer, size) lines, its makespan, its retries and
// its instrument snapshot without the process-resume counter, which is
// what the wait state lowers.
type exchangeRun struct {
	log      string
	makespan sim.Time
	retries  int
	metrics  string
}

// runExchange runs body twice on every rank of a ranks×1 job on the
// noisy Perseus cluster, under sched (nil for healthy), with ranks
// arriving staggered by a compute segment.
func runExchange(t *testing.T, ranks int, sched *faults.Schedule, body func(c *Comm)) exchangeRun {
	t.Helper()
	cfg := cluster.Perseus()
	w := worldWith(t, cfg, ranks, 1, 3)
	w.SetComputeModel(cluster.DefaultComputeModel())
	l := trace.NewLog(0)
	w.SetTrace(l)
	if sched != nil {
		w.SetFaults(sched)
	}
	w.Launch(func(c *Comm) {
		for i := 0; i < 2; i++ {
			c.Compute(20e-6 * float64(c.Rank()%3))
			body(c)
		}
	})
	end, err := w.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ev := range l.Events() {
		fmt.Fprintf(&b, "%d %d %v %d %d\n", ev.Rank, ev.Time, ev.Kind, ev.Peer, ev.Size)
	}
	var m strings.Builder
	for _, pt := range w.Engine().Metrics().Snapshot().Counters {
		if pt.Key() != "sim/proc_resumes_total" {
			fmt.Fprintf(&m, "%s=%d\n", pt.Key(), pt.Value)
		}
	}
	return exchangeRun{log: b.String(), makespan: end, retries: w.Timeouts().Retries, metrics: m.String()}
}

// TestExchangeCollectivesMatchOracle: Barrier, Allgather and Alltoall
// record the same trace and reach the same makespan and instrument
// values as the process-side oracle, at awkward and power-of-two rank
// counts, at an eager and a rendezvous size, healthy and with one NIC
// going dark in outage windows (flaky-nic).
func TestExchangeCollectivesMatchOracle(t *testing.T) {
	const eager, rendezvous = 1024, 64 << 10
	ops := []struct {
		name         string
		real, oracle func(c *Comm)
	}{
		{"Barrier", (*Comm).Barrier, oracleBarrier},
		{"Allgather/eager", func(c *Comm) { c.Allgather(eager) }, func(c *Comm) { oracleAllgather(c, eager) }},
		{"Allgather/rendezvous", func(c *Comm) { c.Allgather(rendezvous) }, func(c *Comm) { oracleAllgather(c, rendezvous) }},
		{"Alltoall/eager", func(c *Comm) { c.Alltoall(eager) }, func(c *Comm) { oracleAlltoall(c, eager) }},
		{"Alltoall/rendezvous", func(c *Comm) { c.Alltoall(rendezvous) }, func(c *Comm) { oracleAlltoall(c, rendezvous) }},
	}
	cfg := cluster.Perseus()
	faultedRetries := 0
	for _, p := range []int{1, 2, 3, 5, 8, 64} {
		for _, op := range ops {
			healthy := runExchange(t, p, nil, op.oracle)
			// The outage windows fall within the healthy run's span (a
			// single rank's run takes no time).
			sched, err := cluster.Scenario("flaky-nic", 7, cluster.ScenarioEnv{
				Nodes: p, Segments: cfg.NumSegments(), Span: max(healthy.makespan.Seconds(), 1e-3),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				faults string
				sched  *faults.Schedule
				want   exchangeRun
			}{
				{"healthy", nil, healthy},
				{"flaky-nic", sched, runExchange(t, p, sched, op.oracle)},
			} {
				got := runExchange(t, p, tc.sched, op.real)
				if tc.sched != nil {
					faultedRetries += got.retries
				}
				if got != tc.want {
					t.Errorf("%d ranks, %s, %s: differs from the oracle\nmakespan %v, want %v\nlog:\n%s\nwant:\n%s\nmetrics:\n%s\nwant:\n%s",
						p, op.name, tc.faults, got.makespan, tc.want.makespan,
						got.log, tc.want.log, got.metrics, tc.want.metrics)
				}
			}
		}
	}
	if faultedRetries == 0 {
		t.Error("no transfer was retried under flaky-nic: the faulted runs test nothing the healthy ones do not")
	}
}

// TestBarrierDeadlockReport: when one rank never enters a Barrier, the
// deadlock error names each stuck rank and the receive it waits for, in
// the words the process-side rounds used.
func TestBarrierDeadlockReport(t *testing.T) {
	w := quietWorld(t, 4, 1, 1)
	w.Launch(func(c *Comm) {
		if c.Rank() != 3 {
			c.Barrier()
		}
	})
	defer w.Shutdown()
	_, err := w.Wait()
	const want = "sim: deadlock: 3 process(es) blocked forever: " +
		"rank0 (Wait(recv src 3 tag 1)), rank1 (Wait(recv src 3 tag 1)), rank2 (Wait(recv src 0 tag 1))"
	if !errors.Is(err, sim.ErrDeadlock) || err.Error() != want {
		t.Errorf("Wait = %v\nwant %s", err, want)
	}
}
