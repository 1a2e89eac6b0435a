package pevpm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

	// hot is the machine's hot-spot slot table, ranked and formatted
	// only when a caller asks for HotSpots.
	hot []hotSpot

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

// opKind is what a resolved op does.
type opKind uint8

const (
	opSerial opKind = iota
	opSend          // MPI_Send: rendezvous above the eager limit
	opIsend
	opRecv
	opColl
	opLoop
	opFail
)

// op is one directive resolved for one process, its expressions already
// evaluated under that process's bindings. A Loop op's body is the body
// ops that follow it.
type op struct {
	kind opKind
	slot int32   // Recv, Coll: hot-spot slot
	peer int32   // Send, Isend: destination; Recv: source
	body int32   // Loop: number of ops in the body
	n    int     // Send, Isend, Recv, Coll: size in bytes; Loop: passes
	secs float64 // Serial: seconds
}

// loop is a Loop op a process is executing: its body is ops[start:end].
type loop struct {
	start, end int
	left       int // passes still to run after the current one
}

// hotSpot accumulates the waits of one receive or collective directive.
type hotSpot struct {
	node Node
	wait float64
}

// mproc is one process of the virtual parallel machine. Before the first
// sweep its directive tree is specialised into ops; step then runs them
// from pc until the process parks or finishes.
type mproc struct {
	id    int
	now   float64
	state procState

	ops   []op
	pc    int    // index of the next op
	loops []loop // Loop ops in execution, innermost last
	fail  error  // raised by the Fail op, which is always the last op

	// A parked process is parked on ops[pc-1], the receive, send or
	// collective it executed last; waitPosted is when it got there.
	waitPosted float64
	collSeq    int // how many collectives this process has entered

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

	procs []mproc
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

	// hot has a slot for every receive or collective directive a process
	// reaches, and slots maps the directive to it. Both are filled while
	// the processes are specialised.
	hot   []hotSpot
	slots map[Node]int32

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
	m.specialise()
	for {
		m.sweeps++
		progress := false
		for i := range m.procs {
			if p := &m.procs[i]; p.state == stateRunnable {
				progress = true
				if err := m.step(p); err != nil {
					return nil, err
				}
			}
		}
		allDone := true
		for i := range m.procs {
			if m.procs[i].state != stateDone {
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

// specialise resolves every process's directive tree into ops. Nothing
// a directive reads changes during an evaluation (procnum, numprocs and
// Params are fixed), so each expression is evaluated once here; the
// database is still queried as the ops run.
func (m *machine) specialise() {
	bound, depth, slots := shape(m.prog.Body)
	m.hot = make([]hotSpot, 0, slots)
	m.slots = make(map[Node]int32, slots)
	// Each process's ops are resolved into one scratch buffer and copied
	// out; a process stops at its Fail op, at most one op past the bound.
	scratch := make([]op, 0, bound+1)
	loops := make([]loop, m.opts.Procs*depth)
	env := make(Env, len(m.prog.Params)+2)
	env["numprocs"] = float64(m.opts.Procs)
	for k, v := range m.prog.Params {
		env[k] = v
	}
	_, fixed := m.prog.Params["procnum"]
	m.procs = make([]mproc, m.opts.Procs)
	for i := range m.procs {
		p := &m.procs[i]
		p.id = i
		if !fixed {
			env["procnum"] = float64(i)
		}
		ops, _ := m.resolve(scratch, m.prog.Body, p, env)
		p.ops = append([]op(nil), ops...)
		p.loops = loops[i*depth : i*depth : (i+1)*depth]
	}
}

// shape bounds what block b resolves to for any one process: ops counts
// its directives, taking the largest branch of each Runon; depth is its
// deepest Loop nesting; slots counts its receive and collective
// directives.
func shape(b Block) (ops, depth, slots int) {
	for _, d := range b {
		switch d := d.(type) {
		case *Loop:
			n, dd, s := shape(d.Body)
			ops, depth, slots = ops+1+n, max(depth, dd+1), slots+s
		case *Runon:
			most := 0
			for _, body := range d.Bodies {
				n, dd, s := shape(body)
				most, depth, slots = max(most, n), max(depth, dd), slots+s
			}
			ops += most
		case *Msg:
			ops++
			if d.Kind == MsgRecv {
				slots++
			}
		case *Coll:
			ops, slots = ops+1, slots+1
		default:
			ops++
		}
	}
	return ops, depth, slots
}

// resolve appends the ops block b specialises into for process p under
// env, making the checks executing each directive would make, in the
// same order. The first check that fails becomes a Fail op and resolve
// reports false: the process stops there, so nothing after it is
// reachable, and the error surfaces only if the process gets that far.
func (m *machine) resolve(ops []op, b Block, p *mproc, env Env) ([]op, bool) {
	for _, d := range b {
		var o op
		var err error
		switch d := d.(type) {
		case *Serial:
			o, err = serialOp(d, env)
		case *Msg:
			o, err = m.msgOp(d, p, env)
		case *Coll:
			o, err = m.collOp(d, env)
		case *Loop:
			var n int
			if n, err = passes(d, env); err == nil {
				var ok bool
				if ops, ok = m.loopOps(ops, d.Body, n, p, env); !ok {
					return ops, false
				}
				continue
			}
		case *Runon:
			var body Block
			if body, err = branch(d, env); err == nil {
				var ok bool
				if ops, ok = m.resolve(ops, body, p, env); !ok {
					return ops, false
				}
				continue
			}
		default:
			continue
		}
		if err != nil {
			p.fail = err
			return append(ops, op{kind: opFail}), false
		}
		ops = append(ops, o)
	}
	return ops, true
}

// loopOps appends a Loop op that runs body n times, followed by the
// body. A Loop with no passes, or whose body resolves to nothing, adds
// no ops: running it would have no effect.
func (m *machine) loopOps(ops []op, body Block, n int, p *mproc, env Env) ([]op, bool) {
	if n == 0 {
		return ops, true
	}
	at := len(ops)
	ops, ok := m.resolve(append(ops, op{kind: opLoop, n: n}), body, p, env)
	if len(ops) == at+1 {
		return ops[:at], ok
	}
	ops[at].body = int32(len(ops) - at - 1)
	return ops, ok
}

// passes is how many times l runs under env.
func passes(l *Loop, env Env) (int, error) {
	cf, err := l.Count.Eval(env)
	if err != nil {
		return 0, err
	}
	n, err := intValue("Loop count", cf)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errNegative("Loop count", cf)
	}
	return n, nil
}

// branch is the body of r's first true condition under env, or nil.
func branch(r *Runon, env Env) (Block, error) {
	for i, cond := range r.Conds {
		v, err := cond.Eval(env)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			return r.Bodies[i], nil
		}
	}
	return nil, nil
}

func serialOp(s *Serial, env Env) (op, error) {
	t, err := s.Time.Eval(env)
	if err != nil {
		return op{}, err
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return op{}, errNotFinite("Serial time", t)
	}
	if t < 0 {
		return op{}, errNegative("Serial time", t)
	}
	return op{kind: opSerial, secs: t}, nil
}

func (m *machine) msgOp(d *Msg, p *mproc, env Env) (op, error) {
	sizeF, err := d.Size.Eval(env)
	if err != nil {
		return op{}, err
	}
	fromF, err := d.From.Eval(env)
	if err != nil {
		return op{}, err
	}
	toF, err := d.To.Eval(env)
	if err != nil {
		return op{}, err
	}
	size, err := intValue("message size", sizeF)
	if err != nil {
		return op{}, err
	}
	from, err := intValue("message from", fromF)
	if err != nil {
		return op{}, err
	}
	to, err := intValue("message to", toF)
	if err != nil {
		return op{}, err
	}
	if size < 0 {
		return op{}, fmt.Errorf("pevpm: negative message size %d", size)
	}
	if from < 0 || from >= m.opts.Procs || to < 0 || to >= m.opts.Procs {
		return op{}, fmt.Errorf("pevpm: message endpoints %d->%d outside 0..%d",
			from, to, m.opts.Procs-1)
	}
	switch d.Kind {
	case MsgSend, MsgIsend:
		if from != p.id {
			return op{}, fmt.Errorf("pevpm: process %d executing a send whose from=%d", p.id, from)
		}
		kind := opIsend
		if d.Kind == MsgSend {
			kind = opSend
		}
		return op{kind: kind, peer: int32(to), n: size}, nil
	case MsgRecv:
		if to != p.id {
			return op{}, fmt.Errorf("pevpm: process %d executing a receive whose to=%d", p.id, to)
		}
		return op{kind: opRecv, peer: int32(from), n: size, slot: m.slot(d)}, nil
	}
	return op{}, fmt.Errorf("pevpm: unknown message kind %v", d.Kind)
}

func (m *machine) collOp(d *Coll, env Env) (op, error) {
	cs, ok := m.opts.DB.(CollectiveSampler)
	if !ok {
		return op{}, fmt.Errorf("pevpm: model uses Collective %s but the database has no collective measurements", d.Op)
	}
	if !cs.HasCollective(d.Op) {
		return op{}, fmt.Errorf("pevpm: collective %s not present in the database", d.Op)
	}
	sizeF, err := d.Size.Eval(env)
	if err != nil {
		return op{}, err
	}
	size, err := intValue("collective size", sizeF)
	if err != nil {
		return op{}, err
	}
	if sizeF < 0 {
		return op{}, errNegative("collective size", sizeF)
	}
	if d.Root != nil {
		if _, err := d.Root.Eval(env); err != nil {
			return op{}, err
		}
	}
	return op{kind: opColl, n: size, slot: m.slot(d)}, nil
}

// slot returns the hot-spot slot of a receive or collective directive,
// adding one when a process first reaches it. Every process that reaches
// one directive shares its slot, as its waits add up in one hot spot.
func (m *machine) slot(n Node) int32 {
	s, ok := m.slots[n]
	if !ok {
		s = int32(len(m.hot))
		m.slots[n] = s
		m.hot = append(m.hot, hotSpot{node: n})
	}
	return s
}

func errNegative(what string, v float64) error {
	return fmt.Errorf("pevpm: negative %s %v", what, v)
}

func errNotFinite(what string, v float64) error {
	return fmt.Errorf("pevpm: %s %v is not finite", what, v)
}

// intValue converts v, the value of what, to an int, truncating. NaN,
// ±Inf and values outside the int range are errors: Go leaves their
// conversion implementation-defined.
func intValue(what string, v float64) (int, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errNotFinite(what, v)
	}
	// -math.MinInt, a power of two, is exact as a float64; MaxInt is not.
	if v < math.MinInt || v >= -math.MinInt {
		return 0, fmt.Errorf("pevpm: %s %v is outside the int range", what, v)
	}
	return int(v), nil
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
	for i := range m.procs {
		if m.procs[i].state == stateRunnable {
			return true
		}
	}
	return false
}

// parkedOn is the op a parked process is waiting in.
func (p *mproc) parkedOn() *op { return &p.ops[p.pc-1] }

// step runs p's ops from where it stopped until the process parks on a
// receive, a rendezvous send or a collective, or finishes. A receive or
// collective the process was parked on ends as it runs again, at its
// completion time.
//
//detlint:hotpath
func (m *machine) step(p *mproc) error {
	if p.pc > 0 {
		switch o := p.parkedOn(); o.kind {
		case opRecv:
			m.rec(p.id, p.now, trace.RecvEnd, int(o.peer), 0, o.n)
		case opColl:
			m.rec(p.id, p.now, trace.CollectiveEnd, -1, 0, o.n)
		}
	}
	for {
		if n := len(p.loops) - 1; n >= 0 && p.pc == p.loops[n].end {
			if l := &p.loops[n]; l.left > 0 {
				l.left--
				p.pc = l.start
			} else {
				p.loops = p.loops[:n]
			}
			continue
		}
		if p.pc == len(p.ops) {
			p.state = stateDone
			return nil
		}
		o := &p.ops[p.pc]
		p.pc++
		switch o.kind {
		case opSerial:
			m.rec(p.id, p.now, trace.ComputeStart, -1, 0, 0)
			p.now += o.secs
			p.bd.Compute += o.secs
			m.rec(p.id, p.now, trace.ComputeEnd, -1, 0, 0)

		case opLoop:
			p.loops = append(p.loops, loop{start: p.pc, end: p.pc + int(o.body), left: o.n - 1})

		case opSend, opIsend:
			m.send(p, o)

		case opRecv:
			m.rec(p.id, p.now, trace.RecvPost, int(o.peer), 0, o.n)
			p.waitPosted = p.now
			p.state = stateParkedRecv

		case opColl:
			// The match phase releases all processes together once
			// everyone has arrived.
			m.rec(p.id, p.now, trace.CollectiveStart, -1, 0, o.n)
			p.collSeq++
			p.waitPosted = p.now
			p.state = stateParkedColl

		case opFail:
			return p.fail
		}
		if p.state != stateRunnable {
			return nil
		}
	}
}

// send runs a Send or Isend op: the sender pays the host cost and the
// message joins the scoreboard. A blocking send above the eager limit
// parks the sender until the match phase delivers the message.
//
//detlint:hotpath
func (m *machine) send(p *mproc, o *op) {
	to := int(o.peer)
	m.rec(p.id, p.now, trace.SendStart, to, 0, o.n)
	busy := m.opts.DB.SendBusy(o.n)
	p.now += busy
	p.bd.SendBusy += busy
	m.seq++
	m.sent++
	f := m.newFlight()
	f.seq, f.from, f.to, f.size = m.seq, p.id, to, o.n
	f.intra = m.opts.NodeOf != nil && m.nodeOf(p.id) == m.nodeOf(to)
	f.depart = p.now
	if f.intra {
		m.intraFlights++
	} else {
		m.interFlights++
	}
	m.pending = append(m.pending, f)
	if o.kind == opSend && o.n > m.opts.DB.EagerLimit() {
		// Rendezvous: the send blocks until the payload is delivered;
		// the match phase resolves the arrival.
		f.sender = p
		p.state = stateParkedSend
	}
}

// matchCollective releases the job from a collective once every process
// has arrived: each process's completion is the synchronised entry (the
// slowest arrival) plus a draw from the operation's measured per-rank
// distribution. A process that finished or parked elsewhere while the
// rest sit in a collective is a collective mismatch — a modelled program
// bug, reported like a deadlock.
func (m *machine) matchCollective() (bool, error) {
	arrived := 0
	var coll *op
	seq := -1
	var entryMax float64
	for i := range m.procs {
		p := &m.procs[i]
		if p.state != stateParkedColl {
			continue
		}
		arrived++
		if o := p.parkedOn(); coll == nil {
			coll, seq = o, p.collSeq
		} else if o.slot != coll.slot || p.collSeq != seq {
			return false, fmt.Errorf("%w: processes in different collectives (%s vs %s)",
				ErrModelDeadlock, m.hot[coll.slot].node.describe(), m.hot[o.slot].node.describe())
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
	hot := &m.hot[coll.slot]
	m.mDrawColl.Inc()
	completion := entryMax + cs.SampleCollective(m.rng, hot.node.(*Coll).Op, m.procs[0].parkedOn().n, m.opts.Procs)
	for i := range m.procs {
		p := &m.procs[i]
		wait := completion - p.waitPosted
		p.bd.RecvWait += wait
		hot.wait += wait
		p.now = completion
		p.state = stateRunnable
	}
	return true, nil
}

// nodeOf returns proc's cluster node, asking Options.NodeOf once per
// process.
func (m *machine) nodeOf(proc int) int {
	q := &m.procs[proc]
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
	orderPending(m.pending)
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
		to := &m.procs[f.to]
		to.inbox = append(to.inbox, f)
	}
	m.pending = m.pending[:0]

	// Match parked receives against their inboxes, oldest flight first
	// per sender — MPI's non-overtaking rule.
	for i := range m.procs {
		p := &m.procs[i]
		if p.state != stateParkedRecv {
			continue
		}
		recv := p.parkedOn()
		best := -1
		for i, f := range p.inbox {
			if f.from == int(recv.peer) && (best < 0 || f.seq < p.inbox[best].seq) {
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
		m.hot[recv.slot].wait += wait
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

// after reports whether a sorts after b in byDepartSeq order. Distinct
// numbers decide without the call; equal departs and NaNs take it.
func after(a, b *flight) bool {
	if a.depart < b.depart {
		return false
	}
	return a.depart > b.depart || byDepartSeq(a, b) > 0
}

// orderPending sorts the pending flights into byDepartSeq order. Each
// process appends its sends in (depart, seq) order and processes step
// in id order, so pending is a few ascending runs and one insertion
// pass moves little. Seqs are unique, so byDepartSeq is a total order
// and any correct sort, this pass included, gives the same order. Past
// about 4n(log2 n + 1) moves the pass hands the rest to
// slices.SortFunc, so no input costs more than a few sorts.
//
//detlint:hotpath
func orderPending(fs []*flight) {
	budget := 4 * len(fs) * bits.Len(uint(len(fs)))
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		if !after(fs[i-1], f) {
			continue
		}
		j := i - 1
		for j > 0 && after(fs[j-1], f) {
			j--
		}
		copy(fs[j+1:i+1], fs[j:i])
		fs[j] = f
		if budget -= i - j; budget < 0 {
			slices.SortFunc(fs, byDepartSeq)
			return
		}
	}
}

func (m *machine) deadlockError() error {
	var stuck []string
	for i := range m.procs {
		p := &m.procs[i]
		switch p.state {
		case stateParkedRecv:
			stuck = append(stuck, fmt.Sprintf("proc %d in %s (posted at %.6fs)",
				p.id, m.hot[p.parkedOn().slot].node.describe(), p.waitPosted))
		case stateParkedSend:
			stuck = append(stuck, fmt.Sprintf("proc %d in rendezvous send", p.id))
		case stateParkedColl:
			stuck = append(stuck, fmt.Sprintf("proc %d in %s (others never arrived)",
				p.id, m.hot[p.parkedOn().slot].node.describe()))
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
		hot:          m.hot,
	}
	for i := range m.procs {
		p := &m.procs[i]
		r.ProcTimes[i] = p.now
		r.Breakdowns[i] = p.bd
		if p.now > r.Makespan {
			r.Makespan = p.now
		}
	}
	m.reg.Counter("pevpm", "replications_total").Inc()
	m.reg.Counter("pevpm", "sweeps_total").Add(uint64(m.sweeps))
	m.reg.Counter("pevpm", "messages_sent_total").Add(m.sent)
	r.Metrics = m.reg.Snapshot()
	return r
}

// HotSpots ranks the receive and collective directives the processes
// reached by their total wait, descending, then by directive text. Every
// process ran all its ops, so every slot holds a completed wait. Each
// call builds a new list, so a Report stays safe to read concurrently;
// the replication loops that never read it never format it.
func (r *Report) HotSpots() []HotSpot {
	if len(r.hot) == 0 {
		return nil
	}
	out := make([]HotSpot, len(r.hot))
	for i, h := range r.hot {
		out[i] = HotSpot{Directive: h.node.describe(), Wait: h.wait}
	}
	slices.SortFunc(out, byWaitDesc)
	return out
}

// byWaitDesc orders hot spots by descending wait, then by directive.
func byWaitDesc(a, b HotSpot) int {
	switch {
	case a.Wait > b.Wait:
		return -1
	case a.Wait < b.Wait:
		return 1
	}
	return strings.Compare(a.Directive, b.Directive)
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
