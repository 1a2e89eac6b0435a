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

// Every collective runs its steps inside the rank's wait state, in
// event context. The oracles below are the loops they replaced, run by
// the rank's own process. An exchange round sleeps its send's host cost
// in isend, blocks on a plain reason until both requests complete, then
// charges them and sleeps the receive's host cost; a tree step is a
// blocking send or receive (waitFree on isend or irecv). Both must make
// every engine call, random draw and trace record at the same position.

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

// oracleSend and oracleRecv are one tree step, a blocking send or
// receive in the collective context.
func oracleSend(c *Comm, dst, tag, size int) { c.waitFree(c.isend(ctxCollective, dst, tag, size, nil)) }
func oracleRecv(c *Comm, src, tag int)       { c.waitFree(c.irecv(ctxCollective, src, tag)) }

func oracleBcast(c *Comm, root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Bcast")
	c.w.collMetric(tagBcast, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Bcast")
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			oracleRecv(c, (rel-mask+root)%p, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			oracleSend(c, (rel+mask+root)%p, tagBcast, size)
		}
		mask >>= 1
	}
}

func oracleReduce(c *Comm, root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Reduce")
	c.w.collMetric(tagReduce, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Reduce")
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < p {
				oracleRecv(c, (srcRel+root)%p, tagReduce)
			}
		} else {
			oracleSend(c, ((rel&^mask)+root)%p, tagReduce, size)
			break
		}
		mask <<= 1
	}
}

func oracleAllreduce(c *Comm, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Allreduce")
	c.w.collMetric(0, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Allreduce")
	oracleReduce(c, 0, size)
	oracleBcast(c, 0, size)
}

func oracleGather(c *Comm, root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Gather")
	c.w.collMetric(tagGather, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Gather")
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	held := size
	mask := 1
	for mask < p {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < p {
				blocks := mask
				if p-srcRel < blocks {
					blocks = p - srcRel
				}
				oracleRecv(c, (srcRel+root)%p, tagGather)
				held += blocks * size
			}
		} else {
			oracleSend(c, ((rel&^mask)+root)%p, tagGather, held)
			break
		}
		mask <<= 1
	}
}

func oracleScatter(c *Comm, root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Scatter")
	c.w.collMetric(tagScatter, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Scatter")
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	if rel != 0 {
		for mask < p {
			if rel&mask != 0 {
				oracleRecv(c, (rel-mask+root)%p, tagScatter)
				break
			}
			mask <<= 1
		}
	} else {
		for mask < p {
			mask <<= 1
		}
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			child := rel + mask
			blocks := mask
			if p-child < blocks {
				blocks = p - child
			}
			oracleSend(c, (child+root)%p, tagScatter, blocks*size)
		}
		mask >>= 1
	}
}

// collectiveRun is one run of a collective program: its trace log as
// (rank, time, kind, peer, size) lines, its makespan, its retries and
// its instrument snapshot without the process-resume counter, which is
// what the wait state lowers.
type collectiveRun struct {
	log      string
	makespan sim.Time
	retries  int
	metrics  string
}

// runTraced runs body twice on every rank of a ranks×1 job on the
// noisy Perseus cluster, under sched (nil for healthy), with ranks
// arriving staggered by a compute segment.
func runTraced(t *testing.T, ranks int, sched *faults.Schedule, body func(c *Comm)) collectiveRun {
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
	return collectiveRun{log: b.String(), makespan: end, retries: w.Timeouts().Retries, metrics: m.String()}
}

// TestExchangeCollectivesMatchOracle: every collective records the
// same trace and reaches the same makespan and instrument values as its
// process-side oracle, at awkward and power-of-two rank counts, at an
// eager and a rendezvous size, rooted at the first and the last rank,
// healthy and with one NIC going dark in outage windows (flaky-nic).
func TestExchangeCollectivesMatchOracle(t *testing.T) {
	const eager, rendezvous = 1024, 64 << 10
	type op struct {
		name         string
		real, oracle func(c *Comm)
	}
	// opsFor lists every collective at p ranks: each sized one at an
	// eager and a rendezvous size, and each rooted one at the first and
	// the last rank.
	opsFor := func(p int) []op {
		ops := []op{{"Barrier", (*Comm).Barrier, oracleBarrier}}
		for _, size := range []int{eager, rendezvous} {
			ops = append(ops,
				op{fmt.Sprintf("Allgather/%d", size), func(c *Comm) { c.Allgather(size) }, func(c *Comm) { oracleAllgather(c, size) }},
				op{fmt.Sprintf("Alltoall/%d", size), func(c *Comm) { c.Alltoall(size) }, func(c *Comm) { oracleAlltoall(c, size) }},
				op{fmt.Sprintf("Allreduce/%d", size), func(c *Comm) { c.Allreduce(size) }, func(c *Comm) { oracleAllreduce(c, size) }})
			roots := []int{0}
			if p > 1 {
				roots = append(roots, p-1)
			}
			for _, root := range roots {
				name := func(coll string) string { return fmt.Sprintf("%s/%d/root%d", coll, size, root) }
				ops = append(ops,
					op{name("Bcast"), func(c *Comm) { c.Bcast(root, size) }, func(c *Comm) { oracleBcast(c, root, size) }},
					op{name("Reduce"), func(c *Comm) { c.Reduce(root, size) }, func(c *Comm) { oracleReduce(c, root, size) }},
					op{name("Gather"), func(c *Comm) { c.Gather(root, size) }, func(c *Comm) { oracleGather(c, root, size) }},
					op{name("Scatter"), func(c *Comm) { c.Scatter(root, size) }, func(c *Comm) { oracleScatter(c, root, size) }})
			}
		}
		return ops
	}
	cfg := cluster.Perseus()
	faultedRetries := 0
	for _, p := range []int{1, 2, 3, 5, 8, 64} {
		for _, op := range opsFor(p) {
			healthy := runTraced(t, p, nil, op.oracle)
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
				want   collectiveRun
			}{
				{"healthy", nil, healthy},
				{"flaky-nic", sched, runTraced(t, p, sched, op.oracle)},
			} {
				got := runTraced(t, p, tc.sched, op.real)
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

// TestBcastDeadlockReport: when the root never enters a Bcast, the
// deadlock error names each rank waiting for its parent's message, in
// the words the process-side tree steps used.
func TestBcastDeadlockReport(t *testing.T) {
	w := quietWorld(t, 4, 1, 1)
	w.Launch(func(c *Comm) {
		if c.Rank() != 0 {
			c.Bcast(0, 1024)
		}
	})
	defer w.Shutdown()
	_, err := w.Wait()
	const want = "sim: deadlock: 3 process(es) blocked forever: " +
		"rank1 (Wait(recv src 0 tag 2)), rank2 (Wait(recv src 0 tag 2)), rank3 (Wait(recv src 2 tag 2))"
	if !errors.Is(err, sim.ErrDeadlock) || err.Error() != want {
		t.Errorf("Wait = %v\nwant %s", err, want)
	}
}
