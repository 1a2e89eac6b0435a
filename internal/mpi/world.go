// Package mpi is a message-passing library with MPI semantics whose
// processes are goroutine ranks of a discrete-event simulation and whose
// bytes travel through the internal/netsim network model. It implements
// the behaviour of MPICH 1.2.0 over TCP — the software the paper
// benchmarked — including the eager/rendezvous protocol switch at 16 KB,
// in-order (TCP-like) delivery per rank pair with head-of-line blocking
// across retransmissions, per-call host CPU overheads, tag/source
// matching with wildcards, and the classic binomial-tree and
// dissemination collective algorithms.
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// World is one simulated MPI job: a set of ranks placed on cluster nodes,
// sharing a network.
type World struct {
	e       *sim.Engine
	net     *netsim.Network
	place   cluster.Placement
	compute cluster.ComputeModel

	// cfg is the network's configuration, copied once at NewWorld (the
	// network never changes it) because Network.Config returns the
	// whole struct by value, too large to copy on every message.
	cfg cluster.Config

	ranks    []*rankState
	hosts    *sim.RNG // host overhead jitter stream
	cpu      *sim.RNG // compute jitter stream
	launched bool

	// tracer, when non-nil, receives a timeline of user-level events
	// (sends, receives, compute intervals, collective brackets).
	tracer *trace.Log

	// sched is the active fault schedule; NodeSlow rules stretch host CPU
	// costs here while the network kinds act inside netsim.
	sched *faults.Schedule

	// tracedSched/tracedLog remember which (schedule, log) pairing already
	// had its fault windows recorded, so SetTrace/SetFaults can be called
	// in either order without duplicating the Chrome fault track.
	tracedSched *faults.Schedule
	tracedLog   *trace.Log

	// timeouts aggregates TCP retransmission timeouts the job's transfers
	// suffered, surfacing the tail events the paper attributes to RTO.
	timeouts TimeoutStats

	// pktFree, reqFree and envFree recycle transport packets, requests
	// and envelopes, so a steady message stream allocates no
	// per-message state. A World runs on one engine, so plain slices
	// suffice.
	pktFree []*packet
	reqFree []*Request
	envFree []*envelope

	finish []sim.Time

	// Deterministic instruments, registered on the engine's registry at
	// NewWorld. Collective counters are pre-resolved per internal tag
	// (slot 0 holds Allreduce, which has no tag of its own: MPICH 1.2
	// composes it from Reduce+Bcast, whose counters also tick).
	mEager      *metrics.Counter // sends at or under the eager limit
	mRendezvous *metrics.Counter // sends that ran the RTS/CTS protocol
	mSendBytes  *metrics.Counter // payload bytes handed to isend
	mUnexpMax   *metrics.Gauge   // unexpected-queue high-water mark
	mCollCalls  [tagAlltoall + 1]*metrics.Counter
	mCollBytes  [tagAlltoall + 1]*metrics.Counter
}

type connKey struct{ src, dst int }

// NewWorld creates a job of placement.NumProcs() ranks on the network.
func NewWorld(e *sim.Engine, net *netsim.Network, place cluster.Placement) *World {
	cfg := net.Config()
	if _, err := cluster.NewPlacement(&cfg, place.NodeCount, place.PerNode); err != nil {
		panic(err)
	}
	w := &World{
		e:       e,
		net:     net,
		place:   place,
		compute: cluster.DefaultComputeModel(),
		cfg:     cfg,
		hosts:   e.RNG("mpi.host"),
		cpu:     e.RNG("mpi.cpu"),
		finish:  make([]sim.Time, place.NumProcs()),
	}
	w.ranks = make([]*rankState, place.NumProcs())
	for i := range w.ranks {
		w.ranks[i] = &rankState{}
	}

	reg := e.Metrics()
	w.mEager = reg.Counter("mpi", "sends_eager_total")
	w.mRendezvous = reg.Counter("mpi", "sends_rendezvous_total")
	w.mSendBytes = reg.Counter("mpi", "send_bytes_total")
	w.mUnexpMax = reg.Gauge("mpi", "unexpected_queue_max")
	for tag := tagBarrier; tag <= tagAlltoall; tag++ {
		op := metrics.L("op", CollectiveName(tag))
		w.mCollCalls[tag] = reg.Counter("mpi", "collective_calls_total", op)
		w.mCollBytes[tag] = reg.Counter("mpi", "collective_bytes_total", op)
	}
	allreduce := metrics.L("op", "Allreduce")
	w.mCollCalls[0] = reg.Counter("mpi", "collective_calls_total", allreduce)
	w.mCollBytes[0] = reg.Counter("mpi", "collective_bytes_total", allreduce)
	return w
}

// collMetric counts one rank's entry into a collective. tag indexes the
// pre-resolved counters; 0 is Allreduce (see the field comment).
func (w *World) collMetric(tag, size int) {
	w.mCollCalls[tag].Inc()
	w.mCollBytes[tag].Add(uint64(size))
}

// SetComputeModel overrides the serial-segment cost model.
func (w *World) SetComputeModel(m cluster.ComputeModel) { w.compute = m }

// SetFaults installs a fault schedule for the whole stack: NodeSlow
// rules apply to this job's host CPU costs and compute segments, and the
// schedule is forwarded to the network for the link/drop/outage/
// backplane kinds. Pass nil to restore the healthy cluster.
func (w *World) SetFaults(s *faults.Schedule) {
	w.sched = s
	w.net.SetFaults(s)
	w.recordFaultWindows()
}

// TimeoutStats summarises the TCP retransmission timeouts a job's
// transfers suffered — the mechanism behind the extreme outliers in the
// paper's distribution tails.
type TimeoutStats struct {
	Messages int          // transfers that needed at least one retransmission
	Retries  int          // total retransmissions across those transfers
	Worst    sim.Duration // longest sent-to-delivered span among them
}

// Timeouts returns the retransmission summary accumulated so far.
func (w *World) Timeouts() TimeoutStats { return w.timeouts }

// slowFactor is the active NodeSlow multiplier for a rank's node.
func (w *World) slowFactor(rank int) float64 {
	if w.sched.Empty() {
		return 1
	}
	return w.sched.SlowFactor(w.place.NodeOf(rank), w.e.Now())
}

// SetTrace attaches a timeline recorder; pass nil to disable. Only
// user-level activity is recorded (collectives appear as brackets, not
// as their internal messages). If a fault schedule is (or later
// becomes) active, its windows are recorded too, so Chrome exports
// draw them on their own track.
func (w *World) SetTrace(l *trace.Log) {
	w.tracer = l
	w.recordFaultWindows()
}

// recordFaultWindows emits the schedule's fault windows onto the trace
// once per (schedule, log) pairing.
func (w *World) recordFaultWindows() {
	if w.tracer == nil || w.sched.Empty() {
		return
	}
	if w.tracedSched == w.sched && w.tracedLog == w.tracer {
		return
	}
	w.tracedSched, w.tracedLog = w.sched, w.tracer
	w.sched.Record(w.tracer)
}

// rec appends a trace event if tracing is enabled.
func (w *World) rec(rank int, kind trace.Kind, peer, tag, size int, note string) {
	if w.tracer == nil {
		return
	}
	w.tracer.Record(trace.Event{
		Time: w.e.Now(), Rank: rank, Kind: kind,
		Peer: peer, Tag: tag, Size: size, Note: note,
	})
}

// Engine returns the simulation engine the job runs on.
func (w *World) Engine() *sim.Engine { return w.e }

// Network returns the underlying network model.
func (w *World) Network() *netsim.Network { return w.net }

// Placement returns the job's rank-to-node mapping.
func (w *World) Placement() cluster.Placement { return w.place }

// Size returns the number of ranks.
func (w *World) Size() int { return w.place.NumProcs() }

// Launch starts program on every rank. Each rank runs in its own
// simulated process; the job begins at the current virtual time.
// Launch may be called once per World.
func (w *World) Launch(program func(c *Comm)) {
	if w.launched {
		panic("mpi: World.Launch called twice")
	}
	w.launched = true
	for rank := 0; rank < w.Size(); rank++ {
		rank := rank
		c := &Comm{w: w, rank: rank}
		c.wait.c = c
		w.ranks[rank].comm = c
		w.e.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			c.proc = p
			program(c)
			w.finish[rank] = p.Now()
		})
	}
}

// ErrRanksDidNotFinish reports ranks that never returned from the program
// even though the simulation ran out of events (should be preceded by a
// deadlock error from the engine).
var ErrRanksDidNotFinish = errors.New("mpi: some ranks did not finish")

// Wait runs the simulation until every rank's program returns, and
// returns the virtual time at which the last rank finished. A deadlock
// (e.g. mismatched sends/receives) surfaces as an error naming the stuck
// ranks and the operations they are blocked in.
func (w *World) Wait() (sim.Time, error) {
	if !w.launched {
		return 0, errors.New("mpi: Wait before Launch")
	}
	end, err := w.e.Run(sim.Forever)
	if err != nil {
		return end, err
	}
	var last sim.Time
	for rank, t := range w.finish {
		if !w.ranks[rank].comm.proc.Done() {
			return end, fmt.Errorf("%w: rank %d", ErrRanksDidNotFinish, rank)
		}
		if t > last {
			last = t
		}
	}
	return last, nil
}

// FinishTimes returns the virtual time each rank's program returned at;
// valid after Wait succeeds.
func (w *World) FinishTimes() []sim.Time {
	out := make([]sim.Time, len(w.finish))
	copy(out, w.finish)
	return out
}

// Shutdown releases rank goroutines after an aborted run (deadlock or
// horizon cut). The World must not be used afterwards.
func (w *World) Shutdown() { w.e.Shutdown() }
