package pevpm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures one evaluation of a model.
type Options struct {
	Procs int    // numprocs of the virtual machine
	DB    PerfDB // communication cost database
	Seed  uint64 // Monte-Carlo seed

	// NodeOf maps a process to its cluster node, letting the machine
	// price messages between processes on one SMP node from the
	// intra-node distributions. When nil every message is inter-node.
	NodeOf func(proc int) int

	// Trace, when non-nil, receives the *predicted* timeline in the
	// same format internal/mpi emits for real executions — diffing the
	// two Gantts localises mispredictions, and the trace alone is the
	// paper's "location and extent of performance loss" view.
	Trace *trace.Log

	// Metrics, when non-nil, receives every replication's instrument
	// snapshot, folded in replication order on the calling goroutine by
	// EvaluateN/EvaluateNWorkers. (Evaluate itself does not touch it;
	// single evaluations expose their snapshot via Report.Metrics.)
	Metrics *metrics.Aggregate
}

// Breakdown attributes one model process's virtual time to its sources —
// the paper's "location and extent of performance loss due to any
// source".
type Breakdown struct {
	Compute  float64 // Serial directives
	SendBusy float64 // host time initiating sends (plus rendezvous blocking)
	RecvWait float64 // blocked in receives (idle + pickup)
}

// HotSpot aggregates waiting time against one directive across all
// processes, identifying where the model loses performance.
type HotSpot struct {
	Directive string
	Wait      float64
}

// Report is the outcome of one evaluation.
type Report struct {
	Procs        int
	ProcTimes    []float64 // per-process completion time (virtual seconds)
	Makespan     float64   // max over processes
	Sweeps       int       // sweep/match rounds executed
	MessagesSent uint64
	Breakdowns   []Breakdown
	HotSpots     []HotSpot // sorted by descending wait

	// Metrics is the evaluation's instrument snapshot: Monte-Carlo draws
	// per distribution, sweep rounds, messages. Each evaluation owns its
	// machine and registry, so concurrent replications never share one.
	Metrics metrics.Snapshot
}

// ErrModelDeadlock is wrapped by Evaluate when the modelled program can
// make no progress — mismatched Message directives, exactly the class of
// bug the paper says PEVPM "automatically discovers".
var ErrModelDeadlock = errors.New("pevpm: model deadlock")

// Evaluate runs the virtual parallel machine over the program once. The
// evaluation alternates sweep phases (advance every process to its next
// decision point, accumulating sends on the contention scoreboard) and
// match phases (sample arrival times from the database under the
// scoreboard's contention level, then match receives), per §5 of the
// paper.
func Evaluate(prog *Program, opts Options) (*Report, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("pevpm: Procs = %d", opts.Procs)
	}
	if opts.DB == nil {
		return nil, errors.New("pevpm: no performance database")
	}
	reg := metrics.NewRegistry()
	m := &machine{
		prog: prog,
		opts: opts,
		//detlint:allow rng -- stream derivation predates sim.SubSeed; rederiving it would shift every committed golden figure (see mpibench run.go for the same compat note)
		rng:        sim.NewRNG(opts.Seed ^ 0x5eed5eed),
		hot:        make(map[Node]float64),
		reg:        reg,
		mDrawInt:   reg.Counter("pevpm", "draws_total", metrics.L("dist", "inter")),
		mDrawIntra: reg.Counter("pevpm", "draws_total", metrics.L("dist", "intra")),
		mDrawColl:  reg.Counter("pevpm", "draws_total", metrics.L("dist", "collective")),
	}
	return m.run()
}

// flight is one message on the contention scoreboard.
type flight struct {
	seq      uint64
	from, to int
	size     int
	intra    bool // endpoints share a node: loopback, not the network
	depart   float64
	arrival  float64
	sender   *mproc // parked rendezvous sender, if any
}

// procState enumerates where a model process is between phases.
type procState int

const (
	stateRunnable procState = iota
	stateParkedRecv
	stateParkedSend
	stateParkedColl
	stateDone
)

// frame is one block a process is executing: the program body, or the
// body of an entered Loop or Runon branch.
type frame struct {
	block Block
	pc    int // index of the next directive
	left  int // Loop passes still to run after the current one
}

// mproc is one process of the virtual parallel machine. The evaluator
// interprets its program directly: frames is the stack of blocks in
// execution, innermost last, and step advances it until the process
// parks or finishes.
type mproc struct {
	id     int
	now    float64
	state  procState
	env    Env
	frames []frame

	// The trace event that closes the receive or collective the process
	// is parked on. step records it when the process next runs, at its
	// completion time.
	endDue           bool
	endKind          trace.Kind
	endPeer, endSize int

	// Receive the process is parked on.
	waitFrom   int
	waitPosted float64
	waitNode   *Msg

	// Collective the process is parked on.
	collNode *Coll
	collSeq  int // how many collectives this process has entered
	collSize int

	// inbox holds the determined flights addressed to this process that
	// no receive has taken yet.
	inbox []*flight

	// node is the process's cluster node, asked of Options.NodeOf on the
	// process's first message.
	node      int
	nodeKnown bool

	bd Breakdown
}

// machine is one evaluation: the processes, the contention scoreboard
// and the Monte-Carlo stream. Processes step in id order in each sweep;
// each match phase draws arrival times in (depart, seq) order over the
// flights sent since the previous match.
type machine struct {
	prog *Program
	opts Options
	rng  *sim.RNG

	procs []*mproc
	// pending holds the flights sent since the last match phase, whose
	// arrival times are not drawn yet; drawn flights wait in their
	// receiver's inbox.
	pending []*flight
	// interFlights and intraFlights count every flight in the air,
	// pending or in an inbox: the contention levels match samples under.
	interFlights, intraFlights int
	// flightFree recycles matched flight records: a long model run moves
	// many messages but only a bounded number are ever in the air at once.
	flightFree []*flight
	seq        uint64
	sent       uint64
	sweeps     int
	hot        map[Node]float64

	// Per-evaluation instruments. The machine owns its registry (there
	// is no sim engine here), so concurrent Monte-Carlo replications
	// cannot race on shared counters.
	reg        *metrics.Registry
	mDrawInt   *metrics.Counter
	mDrawIntra *metrics.Counter
	mDrawColl  *metrics.Counter
}

// newFlight takes a flight record from the machine's pool, or makes one.
func (m *machine) newFlight() *flight {
	if n := len(m.flightFree) - 1; n >= 0 {
		f := m.flightFree[n]
		m.flightFree[n] = nil
		m.flightFree = m.flightFree[:n]
		return f
	}
	return &flight{}
}

// freeFlight recycles a matched flight, dropping its sender reference.
func (m *machine) freeFlight(f *flight) {
	*f = flight{}
	m.flightFree = append(m.flightFree, f)
}

func (m *machine) run() (*Report, error) {
	m.procs = make([]*mproc, m.opts.Procs)
	for i := range m.procs {
		env := Env{"procnum": float64(i), "numprocs": float64(m.opts.Procs)}
		for k, v := range m.prog.Params {
			env[k] = v
		}
		m.procs[i] = &mproc{id: i, env: env, frames: []frame{{block: m.prog.Body}}}
	}

	for {
		m.sweeps++
		progress := false
		for _, p := range m.procs {
			if p.state == stateRunnable {
				progress = true
				if err := m.step(p); err != nil {
					return nil, err
				}
			}
		}
		allDone := true
		for _, p := range m.procs {
			if p.state != stateDone {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		matched := m.match()
		collMatched, err := m.matchCollective()
		if err != nil {
			return nil, err
		}
		matched = matched || collMatched
		if !matched && !progress {
			return nil, m.deadlockError()
		}
		if !matched && !m.anyRunnable() {
			return nil, m.deadlockError()
		}
	}
	return m.report(), nil
}

// rec emits a predicted-timeline event when tracing is on. PEVPM's
// virtual time is float seconds; the trace uses the kernel's Time.
func (m *machine) rec(proc int, at float64, kind trace.Kind, peer, tag, size int) {
	if m.opts.Trace == nil {
		return
	}
	m.opts.Trace.Record(trace.Event{
		Time: sim.TimeFromSeconds(at), Rank: proc, Kind: kind,
		Peer: peer, Tag: tag, Size: size,
	})
}

func (m *machine) anyRunnable() bool {
	for _, p := range m.procs {
		if p.state == stateRunnable {
			return true
		}
	}
	return false
}

// step executes p's directives from where it stopped until the process
// parks on a receive, a rendezvous send or a collective, or finishes.
//
//detlint:hotpath
func (m *machine) step(p *mproc) error {
	if p.endDue {
		p.endDue = false
		m.rec(p.id, p.now, p.endKind, p.endPeer, 0, p.endSize)
	}
	for n := len(p.frames); n > 0; n = len(p.frames) {
		f := &p.frames[n-1]
		if f.pc == len(f.block) {
			if f.left > 0 {
				f.left--
				f.pc = 0
			} else {
				p.frames = p.frames[:n-1]
			}
			continue
		}
		directive := f.block[f.pc]
		f.pc++
		switch node := directive.(type) {
		case *Serial:
			t, err := node.Time.Eval(p.env)
			if err != nil {
				return err
			}
			if t < 0 {
				return errNegative("Serial time", t)
			}
			m.rec(p.id, p.now, trace.ComputeStart, -1, 0, 0)
			p.now += t
			p.bd.Compute += t
			m.rec(p.id, p.now, trace.ComputeEnd, -1, 0, 0)

		case *Loop:
			cf, err := node.Count.Eval(p.env)
			if err != nil {
				return err
			}
			count := int(cf)
			if count < 0 {
				return errNegative("Loop count", cf)
			}
			if count > 0 {
				p.frames = append(p.frames, frame{block: node.Body, left: count - 1})
			}

		case *Runon:
			for i, cond := range node.Conds {
				v, err := cond.Eval(p.env)
				if err != nil {
					return err
				}
				if v != 0 {
					p.frames = append(p.frames, frame{block: node.Bodies[i]})
					break
				}
			}

		case *Msg:
			if err := m.execMsg(p, node); err != nil {
				return err
			}

		case *Coll:
			if err := m.execColl(p, node); err != nil {
				return err
			}

		}
		if p.state != stateRunnable {
			return nil
		}
	}
	p.state = stateDone
	return nil
}

func errNegative(what string, v float64) error {
	return fmt.Errorf("pevpm: negative %s %v", what, v)
}

// execColl parks the process on a collective operation; the match phase
// releases all processes together once everyone has arrived.
func (m *machine) execColl(p *mproc, node *Coll) error {
	cs, ok := m.opts.DB.(CollectiveSampler)
	if !ok {
		return fmt.Errorf("pevpm: model uses Collective %s but the database has no collective measurements", node.Op)
	}
	if !cs.HasCollective(node.Op) {
		return fmt.Errorf("pevpm: collective %s not present in the database", node.Op)
	}
	sizeF, err := node.Size.Eval(p.env)
	if err != nil {
		return err
	}
	if sizeF < 0 {
		return errNegative("collective size", sizeF)
	}
	if node.Root != nil {
		if _, err := node.Root.Eval(p.env); err != nil {
			return err
		}
	}
	m.rec(p.id, p.now, trace.CollectiveStart, -1, 0, int(sizeF))
	p.collNode = node
	p.collSize = int(sizeF)
	p.collSeq++
	p.waitPosted = p.now
	p.state = stateParkedColl
	p.endDue, p.endKind, p.endPeer, p.endSize = true, trace.CollectiveEnd, -1, int(sizeF)
	return nil
}

// matchCollective releases the job from a collective once every process
// has arrived: each process's completion is the synchronised entry (the
// slowest arrival) plus a draw from the operation's measured per-rank
// distribution. A process that finished or parked elsewhere while the
// rest sit in a collective is a collective mismatch — a modelled program
// bug, reported like a deadlock.
func (m *machine) matchCollective() (bool, error) {
	arrived := 0
	var node *Coll
	seq := -1
	var entryMax float64
	for _, p := range m.procs {
		if p.state != stateParkedColl {
			continue
		}
		arrived++
		if node == nil {
			node, seq = p.collNode, p.collSeq
		} else if p.collNode != node || p.collSeq != seq {
			return false, fmt.Errorf("%w: processes in different collectives (%s vs %s)",
				ErrModelDeadlock, node.describe(), p.collNode.describe())
		}
		if p.now > entryMax {
			entryMax = p.now
		}
	}
	if arrived == 0 {
		return false, nil
	}
	if arrived < len(m.procs) {
		// Someone is not coming: either still making progress elsewhere
		// (fine — wait) or finished/stuck (mismatch). Only fail when no
		// other progress is possible; run() handles that via the normal
		// deadlock path, which now includes collective parks.
		return false, nil
	}
	// One draw per collective instance: the database's distribution is
	// the per-instance slowest rank, and the whole job leaves together.
	// (Independent per-process draws would inflate the instance maximum
	// — rank completions within one collective are strongly correlated.)
	cs := m.opts.DB.(CollectiveSampler)
	size := m.procs[0].collSize
	m.mDrawColl.Inc()
	completion := entryMax + cs.SampleCollective(m.rng, node.Op, size, m.opts.Procs)
	for _, p := range m.procs {
		wait := completion - p.waitPosted
		p.bd.RecvWait += wait
		m.hot[node] += wait
		p.now = completion
		p.state = stateRunnable
		p.collNode = nil
	}
	return true, nil
}

// execMsg executes a Message directive. A receive parks the process, and
// so does a blocking send above the eager limit.
func (m *machine) execMsg(p *mproc, node *Msg) error {
	sizeF, err := node.Size.Eval(p.env)
	if err != nil {
		return err
	}
	fromF, err := node.From.Eval(p.env)
	if err != nil {
		return err
	}
	toF, err := node.To.Eval(p.env)
	if err != nil {
		return err
	}
	size, from, to := int(sizeF), int(fromF), int(toF)
	if size < 0 {
		return fmt.Errorf("pevpm: negative message size %d", size)
	}
	if from < 0 || from >= m.opts.Procs || to < 0 || to >= m.opts.Procs {
		return fmt.Errorf("pevpm: message endpoints %d->%d outside 0..%d",
			from, to, m.opts.Procs-1)
	}

	switch node.Kind {
	case MsgSend, MsgIsend:
		if from != p.id {
			return fmt.Errorf("pevpm: process %d executing a send whose from=%d", p.id, from)
		}
		m.rec(p.id, p.now, trace.SendStart, to, 0, size)
		busy := m.opts.DB.SendBusy(size)
		p.now += busy
		p.bd.SendBusy += busy
		m.seq++
		m.sent++
		f := m.newFlight()
		f.seq, f.from, f.to, f.size = m.seq, from, to, size
		f.intra = m.opts.NodeOf != nil && m.nodeOf(from) == m.nodeOf(to)
		f.depart = p.now
		if f.intra {
			m.intraFlights++
		} else {
			m.interFlights++
		}
		m.pending = append(m.pending, f)
		if node.Kind == MsgSend && size > m.opts.DB.EagerLimit() {
			// Rendezvous: the send blocks until the payload is
			// delivered; the match phase resolves the arrival.
			f.sender = p
			p.state = stateParkedSend
		}
		return nil

	case MsgRecv:
		if to != p.id {
			return fmt.Errorf("pevpm: process %d executing a receive whose to=%d", p.id, to)
		}
		m.rec(p.id, p.now, trace.RecvPost, from, 0, size)
		p.waitFrom = from
		p.waitPosted = p.now
		p.waitNode = node
		p.state = stateParkedRecv
		p.endDue, p.endKind, p.endPeer, p.endSize = true, trace.RecvEnd, from, size
		return nil
	}
	return fmt.Errorf("pevpm: unknown message kind %v", node.Kind)
}

// nodeOf returns proc's cluster node, asking Options.NodeOf once per
// process.
func (m *machine) nodeOf(proc int) int {
	q := m.procs[proc]
	if !q.nodeKnown {
		q.node, q.nodeKnown = m.opts.NodeOf(proc), true
	}
	return q.node
}

// match is the PEVPM match phase. It draws arrival times for the flights
// sent since the previous match under the current contention levels,
// wakes rendezvous senders, and matches parked receives. Every older
// flight is already determined, so drawing the new ones in (depart, seq)
// order keeps the draw order of a sort over every flight in the air.
//
//detlint:hotpath
func (m *machine) match() bool {
	progress := false
	slices.SortFunc(m.pending, byDepartSeq)
	// Contention is counted separately for the network and for the
	// intra-node loopback path: a message between two CPUs of one node
	// does not occupy the NIC or switch fabric.
	for _, f := range m.pending {
		if f.intra {
			m.mDrawIntra.Inc()
			f.arrival = f.depart + m.opts.DB.SampleIntra(m.rng, f.size, m.intraFlights)
		} else {
			m.mDrawInt.Inc()
			f.arrival = f.depart + m.opts.DB.Sample(m.rng, f.size, m.interFlights)
		}
		if s := f.sender; s != nil {
			// Rendezvous completion: the sender was blocked from depart
			// until delivery.
			blocked := f.arrival - s.now
			if blocked > 0 {
				s.bd.SendBusy += blocked
				s.now = f.arrival
			}
			s.state = stateRunnable
			f.sender = nil
			progress = true
		}
		to := m.procs[f.to]
		to.inbox = append(to.inbox, f)
	}
	m.pending = m.pending[:0]

	// Match parked receives against their inboxes, oldest flight first
	// per sender — MPI's non-overtaking rule.
	for _, p := range m.procs {
		if p.state != stateParkedRecv {
			continue
		}
		best := -1
		for i, f := range p.inbox {
			if f.from == p.waitFrom && (best < 0 || f.seq < p.inbox[best].seq) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		f := p.inbox[best]
		last := len(p.inbox) - 1
		p.inbox[best] = p.inbox[last]
		p.inbox = p.inbox[:last]
		// If the message arrived before the receive was posted it was
		// buffered: the receiver only pays the pickup cost. Otherwise
		// the receive completes at the measured arrival time.
		completion := f.arrival
		if late := p.waitPosted + m.opts.DB.RecvBusy(f.size); late > completion {
			completion = late
		}
		wait := completion - p.waitPosted
		p.bd.RecvWait += wait
		m.hot[p.waitNode] += wait
		p.now = completion
		p.state = stateRunnable
		if f.intra {
			m.intraFlights--
		} else {
			m.interFlights--
		}
		m.freeFlight(f)
		progress = true
	}
	return progress
}

// byDepartSeq orders flights by departure time, then by send sequence.
func byDepartSeq(a, b *flight) int {
	if c := cmp.Compare(a.depart, b.depart); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (m *machine) deadlockError() error {
	var stuck []string
	for _, p := range m.procs {
		switch p.state {
		case stateParkedRecv:
			stuck = append(stuck, fmt.Sprintf("proc %d in %s (posted at %.6fs)",
				p.id, p.waitNode.describe(), p.waitPosted))
		case stateParkedSend:
			stuck = append(stuck, fmt.Sprintf("proc %d in rendezvous send", p.id))
		case stateParkedColl:
			stuck = append(stuck, fmt.Sprintf("proc %d in %s (others never arrived)",
				p.id, p.collNode.describe()))
		}
	}
	return fmt.Errorf("%w: %s", ErrModelDeadlock, strings.Join(stuck, "; "))
}

func (m *machine) report() *Report {
	r := &Report{
		Procs:        m.opts.Procs,
		ProcTimes:    make([]float64, len(m.procs)),
		Sweeps:       m.sweeps,
		MessagesSent: m.sent,
		Breakdowns:   make([]Breakdown, len(m.procs)),
	}
	for i, p := range m.procs {
		r.ProcTimes[i] = p.now
		r.Breakdowns[i] = p.bd
		if p.now > r.Makespan {
			r.Makespan = p.now
		}
	}
	for node, wait := range m.hot {
		r.HotSpots = append(r.HotSpots, HotSpot{Directive: node.describe(), Wait: wait})
	}
	sort.Slice(r.HotSpots, func(i, j int) bool {
		if r.HotSpots[i].Wait != r.HotSpots[j].Wait {
			return r.HotSpots[i].Wait > r.HotSpots[j].Wait
		}
		return r.HotSpots[i].Directive < r.HotSpots[j].Directive
	})
	m.reg.Counter("pevpm", "replications_total").Inc()
	m.reg.Counter("pevpm", "sweeps_total").Add(uint64(m.sweeps))
	m.reg.Counter("pevpm", "messages_sent_total").Add(m.sent)
	r.Metrics = m.reg.Snapshot()
	return r
}

// EvaluateN runs independent Monte-Carlo evaluations with derived seeds
// and returns the summary of their makespans — the paper runs many
// iterations "so that the statistical error in the mean is negligibly
// small".
func EvaluateN(prog *Program, opts Options, n int) (stats.Summary, error) {
	return EvaluateNWorkers(prog, opts, n, 1)
}

// EvaluateNWorkers is EvaluateN across a worker pool: each replication
// is an independent cell with its own derived seed and virtual machine.
// The makespans are folded into the summary in replication order on the
// calling goroutine, so the result is bit-identical to EvaluateN for
// every worker count. The program is only read; an *EmpiricalDB (whose
// histograms are frozen at construction) is safe to share, as is any
// other database whose Sample is read-only.
func EvaluateNWorkers(prog *Program, opts Options, n, workers int) (stats.Summary, error) {
	var sum stats.Summary
	if opts.Trace != nil && workers != 1 {
		workers = 1 // a shared trace log serialises the replications
	}
	type repResult struct {
		makespan float64
		metrics  metrics.Snapshot
	}
	reps, err := sweep.Map(workers, n, func(i int) (repResult, error) {
		o := opts
		o.Seed = opts.Seed + uint64(i)*7919
		rep, err := Evaluate(prog, o)
		if err != nil {
			return repResult{}, err
		}
		return repResult{makespan: rep.Makespan, metrics: rep.Metrics}, nil
	})
	if err != nil {
		return sum, err
	}
	// Fold in replication order on this goroutine: same discipline as the
	// makespan summary, so metrics are worker-count independent too.
	for _, r := range reps {
		sum.Add(r.makespan)
		if opts.Metrics != nil {
			opts.Metrics.Merge(r.metrics)
		}
	}
	return sum, nil
}
