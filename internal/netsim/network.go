// Package netsim is the stochastic discrete-event model of a cluster's
// communication fabric: per-node NICs serialising frames onto full-duplex
// Fast Ethernet links, switches forwarding store-and-forward, a shared
// inter-switch stacking backplane with finite capacity, and TCP-style
// loss plus retransmission timeouts when buffers overflow.
//
// The model is flow-level — one event pipeline per message, not per
// Ethernet frame — which keeps simulations fast while reproducing the
// phenomena the paper analyses: queueing under contention, the backplane
// saturation cliff, and retransmission-timeout outliers in the tails of
// the latency distributions.
//
// There is one stage pipeline, run by logical processes (LPs). An LP is
// an engine with its RNG streams, the serializers of the nodes, switches
// and links it owns, counters and instruments. The serial Network is one
// LP on the caller's engine that owns everything; ShardedNet
// (shardnet.go) runs one LP per leaf switch plus a core LP.
//
// netsim moves opaque byte counts between nodes. The MPI protocol
// (eager/rendezvous, matching, collectives) lives in internal/mpi.
package netsim

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TransferStats describes one completed message transfer.
type TransferStats struct {
	Sent        sim.Time // when the transfer was handed to the NIC
	Delivered   sim.Time // when the last byte reached the destination host
	Retries     int      // retransmission timeouts suffered
	CrossSwitch bool     // whether the path traversed the stacking backplane
}

// Counters aggregates network activity for experiments and tests.
type Counters struct {
	Transfers   uint64
	IntraNode   uint64
	CrossSwitch uint64
	// Retries counts retransmission timeouts; every dropped attempt
	// triggers exactly one, so it is also the total drop count.
	Retries uint64
	// FaultDrops counts the subset of drops attributed to an active
	// fault schedule (NIC outage windows, injected drop probability)
	// rather than to congestion. FaultDrops <= Retries always.
	FaultDrops   uint64
	WireBytes    uint64
	MaxStackWait sim.Duration // worst backlog observed at the backplane
}

// Receiver is the allocation-free alternative to Transfer's callback: the
// network delivers completion through the interface, so callers that
// already have a per-message object (e.g. an MPI packet) avoid building a
// closure per transfer.
type Receiver interface {
	Deliver(TransferStats)
}

// model is the network both entry points run: the cluster, the path
// table its messages follow and the LPs that own its resources.
//
// LP i below the last owns leaf switch i and its nodes. The last LP, the
// core, owns every other switch and every inter-switch link; with one LP
// the core owns everything.
type model struct {
	cfg cluster.Config
	// topo is the path table: cfg.Topo, or the flat machine's stacking
	// chain (cluster.Config.Paths).
	topo *cluster.Topology
	// rails is how many parallel NIC rails each node drives (1 on flat
	// clusters). A transfer rides rail (src+dst) mod rails, a
	// deterministic spread that keeps both directions of a pair on one
	// rail.
	rails int
	lps   []*lp

	// Per-hop constants of cfg, computed once in init: the lognormal
	// fabric jitter's μ and σ (mean 1, CV ≈ FabricJitter) and the NIC
	// and backplane buffer overflow thresholds, in seconds.
	jitterMu, jitterSigma      float64
	nicBufDelay, stackBufDelay float64

	// sh carries a message between LPs; it lands lookahead later. The
	// one-LP Network never moves a message and has no sh.
	sh        *sim.Shards
	lookahead sim.Duration

	// sched is the active fault schedule (nil or empty = healthy). It is
	// read-only while the simulation runs; an empty schedule draws no
	// extra randomness, so healthy runs are bit-identical with or
	// without the fault machinery.
	sched *faults.Schedule

	// retryObs, when set, observes every retransmission: the attempt
	// number being retried and the jittered RTO (seconds) about to be
	// slept. Tests use it to verify the backoff envelope.
	retryObs func(srcNode, dstNode, try int, rto float64)

	// deliver receives every completed transfer that has no callback or
	// Receiver of its own — every sharded transfer — in the destination
	// LP's event context.
	deliver func(srcNode, dstNode, payload int, st TransferStats)

	// pool is the xfer pool every LP shares. A message's xfer is
	// acquired on the sender's LP and released on whichever LP delivers
	// it, so per-LP free lists alone would drift: a one-directional
	// pattern fills the receivers' lists while the senders keep
	// allocating. sync.Pool is safe at any worker count.
	pool sync.Pool
}

// lpFreeCap bounds an LP's own free list (lp.free). Releases beyond it
// go to the model's pool, where LPs that send more than they receive
// find them.
const lpFreeCap = 256

// lp is one logical process of the model.
type lp struct {
	m  *model
	id int
	e  *sim.Engine

	loss   *sim.RNG
	jitter *sim.RNG

	// The owned nodes are node0 onwards. nicTx/nicRx are indexed
	// (node-node0)*rails+rail, memBus node-node0.
	node0  int
	nicTx  []*sim.Serializer // per-node, per-rail NIC transmit engines
	nicRx  []*sim.Serializer // per-node, per-rail NIC receive engines
	memBus []*sim.Serializer // per-node shared-memory copy engines

	// fabrics model each owned switch's internal switching capacity,
	// indexed sw-sw0. The Intel 510T's fabric ran at 2.1 Gbit/s — less
	// than half of what 24 full-duplex ports can offer — so a switch full
	// of communicating nodes congests internally even before the
	// stacking backplane is involved. Under a hierarchical topology
	// there is one fabric per switch of the tree, spines and routers
	// included.
	sw0     int
	fabrics []*sim.Serializer

	// segments model the inter-switch channels, indexed by link, on the
	// core LP only. On the flat cluster they are the stacking backplane
	// daisy-chain the Intel 510T matrix cards form: segment i joins
	// switch i and i+1, and a message spanning several switches consumes
	// capacity on every segment along the way — what makes wide spans
	// (the paper's 64×1 across three switches) congest first. Under a
	// hierarchical topology, segment i is link i of the topology, with
	// its own rate in segRate.
	segments []*sim.Serializer
	segRate  []float64 // per-segment bit rate (StackRate unless a link overrides)

	// free caches xfers released on this LP, up to lpFreeCap, in front
	// of the model's pool. Only this LP's events touch it, so it needs
	// no synchronisation; the serial Network never reaches the pool
	// unless more than lpFreeCap messages are in flight.
	free []*xfer

	// maxStackWait is the worst backlog this LP saw at a stage; the
	// other Counters fields are read from the instruments below.
	maxStackWait sim.Duration

	// Deterministic instruments, registered on the LP engine's registry
	// so one snapshot covers the cell (ShardedNet merges its LPs').
	// Per-node and per-segment series are pre-resolved into slices: the
	// hot paths index, never format labels.
	mTransfers *metrics.Counter
	mIntra     *metrics.Counter
	mCross     *metrics.Counter
	mWireBytes *metrics.Counter
	mHops      *metrics.Counter   // store-and-forward hops entered
	mDropCong  *metrics.Counter   // drops from buffer overflow
	mDropFault *metrics.Counter   // drops from the fault schedule
	mRetries   *metrics.Counter   // retransmission timeouts (= all drops)
	mRTODepth  *metrics.Histogram // backoff depth at each retransmission
	mSegPeak   []*metrics.Gauge   // per-segment peak backlog, ns
	// Per-node NIC wire bytes (retransmits included) and Ethernet
	// frames, indexed node-node0. Only the serial Network registers
	// them: across a sharded fabric's LPs they would cost more than
	// the rest of its instruments together.
	mTxBytes  []*metrics.Counter
	mTxFrames []*metrics.Counter
}

// xfer is the state of one message, pooled and recycled at delivery.
// It travels with the message: a move to another LP hands over the xfer
// itself. Its one callback, run, is bound when the struct is first
// created and dispatches on stage; because the struct is reused, the
// per-message cost of the whole callback pipeline, LP crossings
// included, is zero allocations in steady state.
type xfer struct {
	lp               *lp // the LP the message is on
	srcNode, dstNode int
	payload          int
	start            sim.Time
	try              int
	done             func(TransferStats)
	recv             Receiver

	rail  int
	cross bool // the endpoints sit on different leaf switches
	// path is the encoded hop walk (cluster.Topology encoding: >= 0 a
	// segment index, < 0 a switch fabric as ^switchID), shared with the
	// path table, and pos the next hop to traverse.
	path []int32
	pos  int

	latency sim.Duration // intraNode: host-side delivery latency

	stage stage  // what fn runs next
	fn    func() // t.run, the callback of every event and move
}

// stage names the step an xfer's callback runs next. A message has at
// most one event or cross-LP post pending at a time, so one field
// suffices.
type stage uint8

const (
	stageStep       stage = iota // next store-and-forward hop of the walk
	stageBackoff                 // a drop reached the sender's LP: start the RTO
	stageReattempt               // RTO expired: run the next attempt
	stageDeliver                 // destination NIC finished receiving
	stageMemDone                 // intraNode: memory bus copy finished
	stageMemDeliver              // intraNode: delivery after host latency
)

// newXfer is the pool's constructor: the struct and its one bound
// callback are the only allocations an xfer ever costs.
func newXfer() any {
	t := &xfer{}
	t.fn = t.run
	return t
}

// run is the callback of every event and cross-LP post of a transfer:
// it runs the step stage names.
//
//detlint:hotpath
func (t *xfer) run() {
	switch t.stage {
	case stageStep:
		t.step()
	case stageBackoff:
		t.backoff()
	case stageReattempt:
		t.reattempt()
	case stageDeliver:
		t.deliver()
	case stageMemDone:
		t.stage = stageMemDeliver
		t.lp.e.Schedule(t.latency, t.fn)
	case stageMemDeliver:
		t.finish(TransferStats{Sent: t.start, Delivered: t.lp.e.Now()})
	}
}

// init builds the model with one LP per engine; the last engine's LP is
// the core.
func (m *model) init(cfg cluster.Config, engines []*sim.Engine) {
	m.cfg = cfg
	sigma2 := math.Log1p(cfg.FabricJitter * cfg.FabricJitter)
	m.jitterMu, m.jitterSigma = -sigma2/2, math.Sqrt(sigma2)
	m.nicBufDelay, m.stackBufDelay = cfg.NICBufferDelay(), cfg.StackBufferDelay()
	m.topo = cfg.Paths()
	m.rails = cfg.Rails()
	m.pool.New = newXfer
	m.lps = make([]*lp, len(engines))
	core := len(engines) - 1
	for i, e := range engines {
		l := &lp{
			m:      m,
			id:     i,
			e:      e,
			loss:   e.RNG("netsim.loss"),
			jitter: e.RNG("netsim.jitter"),
			sw0:    i,
			node0:  i * m.topo.LeafPorts,
		}
		m.lps[i] = l
		for node := l.node0; node < cfg.Nodes && m.nodeLP(node) == i; node++ {
			for r := 0; r < m.rails; r++ {
				l.nicTx = append(l.nicTx, sim.NewSerializer(e))
				l.nicRx = append(l.nicRx, sim.NewSerializer(e))
			}
			l.memBus = append(l.memBus, sim.NewSerializer(e))
		}
		for sw := i; sw < m.topo.Switches && m.switchLP(sw) == i; sw++ {
			l.fabrics = append(l.fabrics, sim.NewSerializer(e))
		}

		reg := e.Metrics()
		l.mTransfers = reg.Counter("net", "transfers_total")
		l.mIntra = reg.Counter("net", "intra_node_total")
		l.mCross = reg.Counter("net", "cross_switch_total")
		l.mWireBytes = reg.Counter("net", "wire_bytes_total")
		l.mHops = reg.Counter("net", "store_forward_hops_total")
		l.mDropCong = reg.Counter("net", "drops_congestion_total")
		l.mDropFault = reg.Counter("net", "drops_fault_total")
		l.mRetries = reg.Counter("net", "retries_total")
		l.mRTODepth = reg.Histogram("net", "rto_backoff_depth", []int64{0, 1, 2, 3, 4, 5})
		if i != core {
			continue
		}
		for s, link := range m.topo.Links {
			l.segments = append(l.segments, sim.NewSerializer(e))
			rate := link.Rate
			if rate <= 0 {
				rate = cfg.StackRate
			}
			l.segRate = append(l.segRate, rate)
			l.mSegPeak = append(l.mSegPeak, reg.Gauge("net", "segment_backlog_ns_max",
				metrics.L("segment", strconv.Itoa(s))))
		}
	}
}

// switchLP returns the LP that owns switch sw.
func (m *model) switchLP(sw int) int {
	if core := len(m.lps) - 1; sw < core {
		return sw
	}
	return len(m.lps) - 1
}

// nodeLP returns the LP that owns a node: its leaf switch's LP.
func (m *model) nodeLP(node int) int { return m.switchLP(node / m.topo.LeafPorts) }

// hopLP returns the LP that owns an encoded hop. Links belong to the
// core.
func (m *model) hopLP(h int32) int {
	if sw, ok := cluster.IsFabricHop(h); ok {
		return m.switchLP(sw)
	}
	return len(m.lps) - 1
}

// SetFaults installs a fault schedule. Pass nil to restore the healthy
// cluster. The schedule must not be mutated while the simulation runs.
// It panics on an invalid schedule — including one whose rules bind no
// node or segment of this cluster — which is a programming error:
// a silently-unmatched fault window would run the healthy model while
// claiming to be degraded.
func (m *model) SetFaults(s *faults.Schedule) {
	if err := s.ValidateFor(m.cfg.Nodes, m.topo.NumSegments()); err != nil {
		panic(err)
	}
	m.sched = s
}

// Config returns the cluster configuration the network models.
func (m *model) Config() cluster.Config { return m.cfg }

// sum adds up the per-LP activity counters from their instruments;
// MaxStackWait is the max. Every field is commutative across LPs, so
// the sum is deterministic.
func (m *model) sum() Counters {
	var total Counters
	for _, l := range m.lps {
		total.Transfers += l.mTransfers.Value()
		total.IntraNode += l.mIntra.Value()
		total.CrossSwitch += l.mCross.Value()
		total.Retries += l.mRetries.Value()
		total.FaultDrops += l.mDropFault.Value()
		total.WireBytes += l.mWireBytes.Value()
		if l.maxStackWait > total.MaxStackWait {
			total.MaxStackWait = l.maxStackWait
		}
	}
	return total
}

// transfer starts a message on the source node's LP, which must be the
// LP whose event context the caller runs in. Completion goes to done,
// else to recv, else to the model's deliver handler.
func (m *model) transfer(srcNode, dstNode, payload int, done func(TransferStats), recv Receiver) {
	if srcNode < 0 || srcNode >= m.cfg.Nodes || dstNode < 0 || dstNode >= m.cfg.Nodes {
		panic(fmt.Sprintf("netsim: transfer %d->%d outside cluster of %d nodes",
			srcNode, dstNode, m.cfg.Nodes))
	}
	if payload < 0 {
		panic(fmt.Sprintf("netsim: negative payload %d", payload))
	}
	l := m.lps[m.nodeLP(srcNode)]
	l.mTransfers.Inc()
	t := l.acquire()
	t.route(srcNode, dstNode, payload)
	t.start = l.e.Now()
	t.done, t.recv = done, recv
	if srcNode == dstNode {
		l.mIntra.Inc()
		t.intraNode()
		return
	}
	wire := uint64(m.cfg.WireBytes(payload))
	l.mWireBytes.Add(wire)
	t.attempt()
}

// acquire returns a pooled xfer for a message starting on the LP: the
// LP's own, else one from the model's pool, which creates one only when
// it is empty.
func (l *lp) acquire() *xfer {
	var t *xfer
	if k := len(l.free) - 1; k >= 0 {
		t = l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
	} else {
		t = l.m.pool.Get().(*xfer)
	}
	t.lp = l
	return t
}

// release recycles a transfer on the LP that finished it, dropping
// caller references so the pool does not pin them.
func (l *lp) release(t *xfer) {
	t.done = nil
	t.recv = nil
	t.try = 0
	if len(l.free) < lpFreeCap {
		l.free = append(l.free, t)
		return
	}
	l.m.pool.Put(t)
}

// route sets a message's endpoints, its rail and its leaf-to-leaf path.
//
//detlint:hotpath
func (t *xfer) route(srcNode, dstNode, payload int) {
	m := t.lp.m
	t.srcNode, t.dstNode, t.payload = srcNode, dstNode, payload
	t.rail = 0
	if m.rails > 1 {
		t.rail = (srcNode + dstNode) % m.rails
	}
	srcLeaf, dstLeaf := srcNode/m.topo.LeafPorts, dstNode/m.topo.LeafPorts
	t.path = m.topo.PathHops(srcLeaf, dstLeaf)
	t.cross = srcLeaf != dstLeaf
}

// move carries the message to LP `to`, one lookahead later, and runs
// stage s there. The xfer itself is the message: its route, start, try
// and pos travel with it, and the post is its prebuilt callback, so a
// crossing allocates nothing. Nothing on the sending LP touches the
// xfer after it moves. The one-LP Network never moves a message.
//
//detlint:hotpath
func (t *xfer) move(to int, s stage) {
	from := t.lp
	m := from.m
	t.lp, t.stage = m.lps[to], s
	m.sh.Post(from.id, to, from.e.Now().Add(m.lookahead), t.fn)
}

// finish hands the completed transfer to its consumer and recycles the
// state machine. The xfer is released before the consumer runs so one
// that immediately starts another transfer reuses it.
func (t *xfer) finish(st TransferStats) {
	l := t.lp
	done, recv := t.done, t.recv
	src, dst, payload := t.srcNode, t.dstNode, t.payload
	l.release(t)
	switch {
	case done != nil:
		done(st)
	case recv != nil:
		recv.Deliver(st)
	case l.m.deliver != nil:
		l.m.deliver(src, dst, payload, st)
	}
}

// intraNode models a shared-memory copy through the node's memory bus,
// which both CPUs of an SMP node contend for.
func (t *xfer) intraNode() {
	l := t.lp
	cfg := &l.m.cfg
	service := sim.DurationFromSeconds(float64(t.payload) * 8 / cfg.MemRate)
	t.latency = l.jittered(cfg.MemLatency)
	t.stage = stageMemDone
	l.memBus[t.srcNode-l.node0].Enqueue(service, t.fn)
}

// attempt runs one end-to-end transmission try, on the sender's LP. A
// drop at a stage or the destination port triggers a TCP-like
// retransmission timeout and a full retry from the source, exactly as a
// lost segment would.
//
//detlint:hotpath
func (t *xfer) attempt() {
	l := t.lp
	m := l.m
	cfg := &m.cfg
	wire := cfg.WireBytes(t.payload)

	// NIC outage windows lose the attempt outright — the segment went
	// onto a dead wire — and the sender discovers it via the TCP timeout.
	// This checks only the schedule (no RNG), so it is deterministic.
	if m.sched.NICDown(t.srcNode, l.e.Now()) || m.sched.NICDown(t.dstNode, l.e.Now()) {
		l.mDropFault.Inc()
		t.retry()
		return
	}

	// Link degradation stretches the serialisation time: the NIC clocks
	// bits onto the wire at a fraction of the nominal rate.
	txRate := cfg.LinkRate * m.sched.LinkFactor(t.srcNode, l.e.Now())
	txService := sim.DurationFromSeconds(float64(wire) * 8 / txRate)

	// Per-NIC accounting sits here, not in transfer, so retransmissions
	// count as the real wire activity they are.
	local := t.srcNode - l.node0
	if l.mTxBytes != nil {
		l.mTxBytes[local].Add(uint64(wire))
		l.mTxFrames[local].Add(uint64(cfg.Frames(t.payload)))
	}

	txEnd := l.nicTx[local*m.rails+t.rail].Enqueue(txService, nil)
	txStart := txEnd.Add(-txService)

	// The first frame must be fully received by the switch before it can
	// be forwarded (store-and-forward), then crosses one hop.
	sfDelay := sim.DurationFromSeconds(cfg.FrameTime(t.payload)) + l.jittered(cfg.SwitchLatency)
	t.pos = 0
	t.stage = stageStep
	l.e.At(txStart.Add(sfDelay), t.fn)
}

// step traverses the next hop of the walk — a switch fabric (the 510T's
// 2.1 Gbit/s shared fabric, or a spine/router of a hierarchical tree)
// or an inter-switch segment, the chain whose saturation produces the
// paper's Figure 4 tails — and is re-entered on each un-dropped
// store-and-forward handoff until the path ends at the destination
// port. A hop another LP owns moves the message there first. The stage
// is stageStep on entry, so traverseStage's handoff re-enters step.
//
//detlint:hotpath
func (t *xfer) step() {
	l := t.lp
	if t.pos >= len(t.path) {
		t.arrive()
		return
	}
	h := t.path[t.pos]
	if owner := l.m.hopLP(h); owner != l.id {
		t.move(owner, stageStep)
		return
	}
	t.pos++
	var dropped bool
	if sw, ok := cluster.IsFabricHop(h); ok {
		dropped = l.traverseStage(l.fabrics[sw-l.sw0], -1, t.payload, true, t.fn)
	} else {
		dropped = l.traverseStage(l.segments[h], int(h), t.payload, false, t.fn)
	}
	if dropped {
		t.retry()
	}
}

// arrive is the destination port, on the destination's LP: the last
// hop from the egress switch into the receiving host's NIC.
//
//detlint:hotpath
func (t *xfer) arrive() {
	l := t.lp
	m := l.m
	cfg := &m.cfg
	rx := l.nicRx[(t.dstNode-l.node0)*m.rails+t.rail]
	// Drop if the port's buffers have overflowed. The congestion check
	// runs first so healthy runs consume the loss stream identically
	// whether or not a schedule is installed.
	if l.dropped(rx.Backlog(), m.nicBufDelay) {
		l.mDropCong.Inc()
		t.retry()
		return
	}
	if boost := m.sched.DropBoost(t.dstNode, l.e.Now()); boost > 0 && l.loss.Bool(boost) {
		l.mDropFault.Inc()
		t.retry()
		return
	}
	// The delivered stream cannot run faster than the slowest link on
	// the path: a degraded source NIC throttles the whole pipeline,
	// not just its own transmit queue.
	lf := m.sched.LinkFactor(t.dstNode, l.e.Now())
	if src := m.sched.LinkFactor(t.srcNode, l.e.Now()); src < lf {
		lf = src
	}
	wire := cfg.WireBytes(t.payload)
	rxService := sim.DurationFromSeconds(float64(wire) * 8 / (cfg.LinkRate * lf))
	t.stage = stageDeliver
	rx.Enqueue(rxService, t.fn)
}

// deliver runs at the receive serializer's end time, so the LP's clock
// is the delivery time.
//
//detlint:hotpath
func (t *xfer) deliver() {
	l := t.lp
	if t.cross {
		l.mCross.Inc()
	}
	t.finish(TransferStats{
		Sent:        t.start,
		Delivered:   l.e.Now(),
		Retries:     t.try,
		CrossSwitch: t.cross,
	})
}

// retry handles a dropped attempt. The retransmission timer runs on the
// sender's LP: a drop on another LP moves the loss notification back
// across the boundary, one lookahead like any other signal.
//
//detlint:hotpath
func (t *xfer) retry() {
	if src := t.lp.m.nodeLP(t.srcNode); src != t.lp.id {
		t.move(src, stageBackoff)
		return
	}
	t.backoff()
}

// backoff schedules a retransmission after the TCP timeout, with
// exponential backoff capped to keep simulated time bounded under
// pathological saturation.
//
//detlint:hotpath
func (t *xfer) backoff() {
	l := t.lp
	cfg := &l.m.cfg
	l.mRetries.Inc()
	l.mRTODepth.Observe(int64(t.try))
	exp := t.try
	if exp > 5 {
		exp = 5
	}
	rto := cfg.RTO
	for i := 0; i < exp; i++ {
		rto *= cfg.RTOBackoff
	}
	// ±10% jitter so synchronized losses do not retransmit in lock-step.
	rto *= 0.9 + 0.2*l.jitter.Float64()
	if obs := l.m.retryObs; obs != nil {
		obs(t.srcNode, t.dstNode, t.try, rto)
	}
	t.stage = stageReattempt
	l.e.Schedule(sim.DurationFromSeconds(rto), t.fn)
}

// reattempt runs when the retransmission timeout expires.
//
//detlint:hotpath
func (t *xfer) reattempt() {
	t.try++
	t.attempt()
}

// jittered multiplies a nominal latency by a small lognormal factor,
// modelling interrupt coalescence and forwarding-engine variance.
func (l *lp) jittered(nominal float64) sim.Duration {
	f := 1 + l.m.cfg.JitterSigma*l.jitter.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return sim.DurationFromSeconds(nominal * f)
}

// dropped decides whether congestion claims this message.
func (l *lp) dropped(backlog sim.Duration, threshold float64) bool {
	p := l.m.cfg.DropProb(backlog.Seconds(), threshold)
	return p > 0 && l.loss.Bool(p)
}

// traverseStage sends a message through one backplane-speed stage (a
// switch fabric or a stacking segment): it consumes the full message's
// worth of the stage's capacity — bits at the stack rate plus per-frame
// forwarding time — but hands off downstream cut-through style, one
// frame after the stage starts serving the message, so large messages
// pipeline across stages instead of paying store-and-forward per stage.
// The handoff respects queueing: if the stage is backed up, the message
// waits its full turn.
//
// Switch fabrics (perFrame=true, seg=-1) pay the forwarding engine's
// per-frame processing on top of the bit rate; stacking segments
// (perFrame=false, seg = segment index) are simple TDM pipes that move
// bits at the stack rate only — which is why small-message contention is
// a fabric phenomenon while the backplane only matters once large
// transfers approach its bit capacity. A BackplaneDegrade fault scales
// the segment's rate down.
//
// A buffer overflow claims the message immediately and traverseStage
// reports it by returning true; otherwise arrive fires at handoff time.
//
//detlint:hotpath
func (l *lp) traverseStage(s *sim.Serializer, seg, payload int, perFrame bool, arrive func()) (droppedNow bool) {
	cfg := &l.m.cfg
	l.mHops.Inc()
	wait := s.Backlog()
	if wait > l.maxStackWait {
		l.maxStackWait = wait
	}
	if seg >= 0 {
		l.mSegPeak[seg].SetMax(int64(wait))
	}
	if l.dropped(wait, l.m.stackBufDelay) {
		l.mDropCong.Inc()
		return true
	}
	rate := cfg.StackRate
	if seg >= 0 {
		rate = l.segRate[seg] * l.m.sched.StackFactor(seg, l.e.Now())
	}
	serviceSec := float64(cfg.WireBytes(payload)) * 8 / rate
	frame := cfg.WireBytes(payload)
	if max := cfg.MTU + cfg.FrameOverhead; frame > max {
		frame = max
	}
	oneFrame := float64(frame) * 8 / rate
	if perFrame {
		serviceSec = cfg.FabricService(payload)
		oneFrame += cfg.FabricPerFrame
	}
	if cfg.FabricJitter > 0 {
		// Lognormal service variance: mean preserved, CV ≈ FabricJitter.
		serviceSec *= l.jitter.LogNormal(l.m.jitterMu, l.m.jitterSigma)
	}
	service := sim.DurationFromSeconds(serviceSec)
	end := s.Enqueue(service, nil)
	handoff := end.Add(-service).Add(sim.DurationFromSeconds(oneFrame)).Add(l.jittered(cfg.SwitchLatency))
	l.e.At(handoff, arrive)
	return false
}

// Network simulates the communication fabric of one cluster on the
// caller's engine: the model as one LP that owns every node, fabric and
// segment.
type Network struct {
	model
}

// New builds the network for a cluster configuration. It panics on an
// invalid configuration, which is a programming error.
func New(e *sim.Engine, cfg cluster.Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{}
	n.init(cfg, []*sim.Engine{e})
	l := n.lps[0]
	reg := e.Metrics()
	l.mTxBytes = make([]*metrics.Counter, cfg.Nodes)
	l.mTxFrames = make([]*metrics.Counter, cfg.Nodes)
	for i := range l.mTxBytes {
		node := metrics.L("node", strconv.Itoa(i))
		l.mTxBytes[i] = reg.Counter("net", "nic_tx_bytes_total", node)
		l.mTxFrames[i] = reg.Counter("net", "nic_tx_frames_total", node)
	}
	return n
}

// SetRetryObserver installs a hook called on every retransmission with
// the source and destination node, the attempt number that failed, and
// the jittered RTO in seconds the retry will wait. Tests use it to
// check the backoff envelope; pass nil to remove.
//
//detlint:allow unused -- the RTO backoff-envelope test and the network pin observe every retry through it
func (n *Network) SetRetryObserver(f func(srcNode, dstNode, try int, rto float64)) {
	n.retryObs = f
}

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Counters { return n.sum() }

// Transfer moves payload bytes from srcNode to dstNode, invoking done in
// event context when the last byte has arrived at the destination host.
// Host CPU costs (MPI send/receive overheads) are deliberately excluded:
// they belong to the process and are modelled by internal/mpi.
func (n *Network) Transfer(srcNode, dstNode, payload int, done func(TransferStats)) {
	n.transfer(srcNode, dstNode, payload, done, nil)
}

// TransferTo is Transfer with an interface destination instead of a
// callback: completion arrives via to.Deliver. Callers that already own a
// per-message object implement Receiver on it and save the per-transfer
// closure allocation of the func form.
func (n *Network) TransferTo(srcNode, dstNode, payload int, to Receiver) {
	n.transfer(srcNode, dstNode, payload, nil, to)
}

// Utilization summarises how busy each class of resource has been over
// an interval of virtual time — the accounting behind the paper's
// backplane-saturation analysis ("approximately ... 2.02 Gbit/s was
// being delivered between the two fully utilised switches").
type Utilization struct {
	// Busy fractions in [0,1] (cumulative service time / elapsed).
	BusiestNICTx   float64
	BusiestNICRx   float64
	BusiestFabric  float64
	BusiestSegment float64
	MeanSegment    float64
	// DeliveredStackBits is the total traffic the backplane segments
	// carried, in bits (wire bits × segments crossed).
	DeliveredStackBits float64
}

// UtilizationSince computes busy fractions for the window from start to
// the current virtual time. Service time is accumulated from network
// creation, so pass start=0 (or accept slight over-counting if traffic
// flowed before the window).
func (n *Network) UtilizationSince(start sim.Time) Utilization {
	l := n.lps[0]
	elapsed := l.e.Now().Sub(start).Seconds()
	if elapsed <= 0 {
		return Utilization{}
	}
	maxBusy := func(ss []*sim.Serializer) float64 {
		worst := 0.0
		for _, s := range ss {
			if f := s.BusyTime().Seconds() / elapsed; f > worst {
				worst = f
			}
		}
		return worst
	}
	u := Utilization{
		BusiestNICTx:   maxBusy(l.nicTx),
		BusiestNICRx:   maxBusy(l.nicRx),
		BusiestFabric:  maxBusy(l.fabrics),
		BusiestSegment: maxBusy(l.segments),
	}
	var total float64
	for _, s := range l.segments {
		busy := s.BusyTime().Seconds()
		total += busy / elapsed
		u.DeliveredStackBits += busy * n.cfg.StackRate
	}
	if len(l.segments) > 0 {
		u.MeanSegment = total / float64(len(l.segments))
	}
	return u
}
