package pevpm

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
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
}

// Breakdown attributes one model process's virtual time to its sources —
// the paper's "location and extent of performance loss due to any
// source".
type Breakdown struct {
	Compute  float64 `json:"compute_s"`   // Serial directives
	SendBusy float64 `json:"send_busy_s"` // host time initiating sends (plus rendezvous blocking)
	RecvWait float64 `json:"recv_wait_s"` // blocked in receives (idle + pickup)
}

// HotSpot aggregates waiting time against one directive across all
// processes, identifying where the model loses performance.
type HotSpot struct {
	Directive string  `json:"directive"`
	Wait      float64 `json:"wait_s"`
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
	// per distribution, sweep rounds, messages. Each evaluation counts on
	// its own machine, so concurrent replications never share a counter.
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
// paper. A process that reaches a directive that failed a check fails
// the evaluation with that *Check.
//
// The first evaluation at a process count specialises the program into
// a plan: every process's ops and the hot-spot slot table. Later
// evaluations reuse that plan while the program is unchanged (see
// Program) and the database answers the questions specialisation asked
// it (whether it samples collectives, and which) the same way. Each
// evaluation runs on a machine the plan recycles; the Report owns
// everything it returns. Evaluate may be called from several goroutines
// on one Program.
func Evaluate(prog *Program, opts Options) (*Report, error) {
	m, err := prog.plans.acquire(prog, opts)
	if err != nil {
		return nil, err
	}
	rep, err := m.run()
	prog.plans.release(m)
	return rep, err
}

// planCache holds the plans Evaluate specialised one Program into, and
// the identity of the Params and Body they were built from. Its lock
// guards the plan list and every plan's free machines. A plan never
// changes once built, so machines read it without the lock.
type planCache struct {
	mu sync.Mutex
	// built is set once params, body0 and bodyLen describe a program
	// that validated.
	built   bool
	params  map[string]float64 // a copy of Program.Params
	body0   Node               // Program.Body[0], or nil
	bodyLen int
	plans   []*Plan
}

// maxPlans bounds the plans one Program keeps, so a program evaluated
// at ever more process counts does not grow without limit; the oldest
// plan goes first.
const maxPlans = 16

// acquire returns a machine ready to evaluate prog under opts, from a
// cached plan when one fits. A program that changed since the cache was
// built is validated again and its plans are dropped.
func (c *planCache) acquire(prog *Program, opts Options) (*machine, error) {
	if prog == nil {
		return nil, prog.Validate()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.holds(prog) {
		if err := prog.Validate(); err != nil {
			return nil, err
		}
		c.built, c.params, c.plans = true, maps.Clone(prog.Params), nil
		c.body0, c.bodyLen = nil, len(prog.Body)
		if len(prog.Body) > 0 {
			c.body0 = prog.Body[0]
		}
	}
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("pevpm: Procs = %d", opts.Procs)
	}
	if opts.DB == nil {
		return nil, errors.New("pevpm: no performance database")
	}
	pl := c.lookup(opts.Procs, opts.DB)
	if pl == nil {
		pl = newPlan(prog, opts.Procs, opts.DB, false)
		if len(c.plans) == maxPlans {
			c.plans = slices.Delete(c.plans, 0, 1)
		}
		c.plans = append(c.plans, pl)
	}
	m := pl.take()
	m.opts = opts
	//detlint:allow rng -- stream derivation predates sim.SubSeed; rederiving it would shift every committed golden figure (see mpibench run.go for the same compat note)
	m.rng = *sim.NewRNG(opts.Seed ^ 0x5eed5eed)
	return m, nil
}

// holds reports whether the cache was built from prog's present Params
// values and Body: the same first directive and length. A directive
// edited in place is not seen.
//
//detlint:hotpath
func (c *planCache) holds(prog *Program) bool {
	if !c.built || len(prog.Body) != c.bodyLen || len(prog.Params) != len(c.params) {
		return false
	}
	if len(prog.Body) > 0 && prog.Body[0] != c.body0 {
		return false
	}
	//detlint:ordered -- an equality test: whichever key differs first, the answer is false
	for k, v := range prog.Params {
		if w, ok := c.params[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// lookup returns the cached plan for procs processes that db fits, or
// nil.
//
//detlint:hotpath
func (c *planCache) lookup(procs int, db PerfDB) *Plan {
	for _, pl := range c.plans {
		if pl.procs == procs && pl.fits(db) {
			return pl
		}
	}
	return nil
}

// release resets a machine whose report is built and returns it to its
// plan's free list.
//
//detlint:hotpath
func (c *planCache) release(m *machine) {
	m.reset()
	c.mu.Lock()
	m.plan.free = append(m.plan.free, m)
	c.mu.Unlock()
}

// Plan is a program resolved for one process count: every process's ops,
// each process's first failed check, and the hot-spot slot table, with
// the database's answers to the questions resolution asked it. Evaluate
// runs the plans it caches; Resolve builds one for a reader such as
// mpilint. Only Resolve's plans also record the directive each op came
// from, every check a directive failed or warned about, and the branch
// each process took at each Runon it reached.
type Plan struct {
	// Checks holds every check a directive failed or warned about,
	// process by process, each process's in directive order. Only
	// Resolve records them.
	Checks []*Check
	// Branches holds each Runon a process reached, in the same order.
	// Only Resolve records them.
	Branches []Branch

	procs int
	ops   [][]op   // per process
	nodes [][]Node // per process: the directive of each op (Resolve only)
	fails []error  // per process: the error its first Fail op raises, or nil
	depth int      // deepest Loop nesting
	chans int      // channels: the (receiver, sender) pairs receives name
	// slots holds the receive or collective directive of each hot-spot
	// slot, in the order processes first reached them.
	slots []Node

	// askedSampler is set when specialisation asked whether the
	// database is a CollectiveSampler (a program with no Collective
	// directive asks nothing); sampler is the answer, and answers holds
	// HasCollective's answer for each operation it asked about.
	askedSampler, sampler bool
	answers               []collAnswer

	// free holds the plan's idle machines, guarded by the cache's lock.
	free []*machine
}

// collAnswer is what the database said of one collective operation.
type collAnswer struct {
	op  string
	has bool
}

// fits reports whether db answers every question specialisation asked
// the same way the database the plan was built on did.
//
//detlint:hotpath
func (pl *Plan) fits(db PerfDB) bool {
	if !pl.askedSampler {
		return true
	}
	cs, ok := db.(CollectiveSampler)
	if ok != pl.sampler {
		return false
	}
	for _, a := range pl.answers {
		if cs.HasCollective(a.op) != a.has {
			return false
		}
	}
	return true
}

// take returns an idle machine of the plan, or builds one. The cache's
// lock is held.
//
//detlint:hotpath
func (pl *Plan) take() *machine {
	if n := len(pl.free) - 1; n >= 0 {
		m := pl.free[n]
		pl.free[n] = nil
		pl.free = pl.free[:n]
		return m
	}
	return pl.newMachine()
}

// newMachine builds a machine for the plan: its processes, their loop
// stacks, the channels, the hot-spot waits and the process sets, every
// process runnable.
func (pl *Plan) newMachine() *machine {
	m := &machine{
		plan: pl, procs: make([]mproc, pl.procs), chans: make([]channel, pl.chans),
		hot: make([]float64, len(pl.slots)),
	}
	loops := make([]loop, pl.procs*pl.depth)
	for i := range m.procs {
		p := &m.procs[i]
		p.id, p.ops, p.fail = i, pl.ops[i], pl.fails[i]
		p.loops = loops[i*pl.depth : i*pl.depth : (i+1)*pl.depth]
	}
	w := (pl.procs + 63) / 64
	sets := make(procSet, 3*w)
	m.runnable, m.recvReady, m.inColl = sets[:w:w], sets[w:2*w:2*w], sets[2*w:]
	m.runnable.fill(pl.procs)
	return m
}

// procSet is a set of process ids, one bit each: id i is bit i%64 of
// word i/64, so reading the words in order and each word's bits from
// the lowest visits the members in id order.
type procSet []uint64

func (s procSet) add(id int) { s[id>>6] |= 1 << (id & 63) }

// fill makes s hold ids 0 to n-1, n being the machine's process count.
func (s procSet) fill(n int) {
	for w := range s {
		s[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		s[len(s)-1] = 1<<r - 1
	}
}

// flight is one message on the contention scoreboard.
type flight struct {
	seq     uint64
	to      int
	size    int
	depart  float64
	arrival float64
	sender  *mproc  // parked rendezvous sender, if any
	next    *flight // the next flight of its channel
	ch      int32   // the channel it waits in once drawn, or -1
	intra   bool    // endpoints share a node: loopback, not the network
}

// channel holds the drawn flights from one sender to one receiver that
// no receive has taken yet, oldest first: MPI's non-overtaking rule
// makes a receive take the head.
type channel struct {
	head, tail *flight
}

// push links a drawn flight at c's tail. A match phase draws a sender's
// flights in (depart, seq) order, and a sender's departs never fall
// (Evaluate refuses negative and NaN costs), so the tail is the newest.
//
//detlint:hotpath
func (c *channel) push(f *flight) {
	if c.tail == nil {
		c.head, c.tail = f, f
	} else {
		c.tail.next, c.tail = f, f
	}
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
	ch   int32   // Send, Isend, Recv: channel from sender to receiver, or -1 (a send no receive takes)
	body int32   // Loop: number of ops in the body
	n    int     // Send, Isend, Recv, Coll: size in bytes; Loop: passes
	secs float64 // Serial: seconds
}

// loop is a Loop op a process is executing: its body is ops[start:end].
type loop struct {
	start, end int
	left       int // passes still to run after the current one
}

// hotSpot is the waits of one receive or collective directive.
type hotSpot struct {
	node Node
	wait float64
}

// mproc is one process of the virtual parallel machine. Its ops are its
// directive tree as the plan specialised it; step runs them from pc
// until the process parks or finishes.
type mproc struct {
	id    int
	now   float64
	state procState

	ops   []op   // the plan's: never written
	pc    int    // index of the next op
	loops []loop // Loop ops in execution, innermost last
	fail  error  // raised by the first Fail op; every op after it is dead

	// A parked process is parked on ops[pc-1], the receive, send or
	// collective it executed last; waitPosted is when it got there.
	waitPosted float64
	collSeq    int // how many collectives this process has entered

	// node is the process's cluster node, asked of Options.NodeOf on the
	// process's first message.
	node      int
	nodeKnown bool

	bd Breakdown
}

// machine is one evaluation: the processes, the contention scoreboard
// and the Monte-Carlo stream. Processes step in id order in each sweep;
// each match phase draws arrival times in (depart, seq) order over the
// flights sent since the previous match. A plan recycles its machines:
// reset returns one to its state before the first sweep, keeping what
// it allocated.
type machine struct {
	plan *Plan
	opts Options
	rng  sim.RNG

	procs []mproc
	// pending holds the flights sent since the last match phase, whose
	// arrival times are not drawn yet; drawn flights wait in their
	// channel, the plan's number for their (receiver, sender) pair.
	pending []*flight
	chans   []channel
	// interFlights and intraFlights count every flight in the air:
	// pending, waiting in a channel, or drawn for a receiver that never
	// receives from its sender. They are the contention levels match
	// samples under.
	interFlights, intraFlights int
	// flightFree recycles flight records: a long model run moves many
	// messages but only a bounded number are ever in the air at once.
	flightFree []*flight
	seq        uint64
	sweeps     int

	// Where the processes stand, kept as each one changes state so that
	// no phase scans them all: runnable holds the processes the next
	// sweep steps, recvReady the parked receivers the next match phase
	// tries (those that parked since the last one and those whose
	// channel gained a flight), and inColl the
	// processes parked in a collective. done counts the finished
	// processes.
	runnable, recvReady, inColl procSet
	done                        int

	// hot holds the wait of each of the plan's hot-spot slots.
	hot []float64

	// err is the first database answer refused as a cost (refuse).
	err error

	// The evaluation's counters, which report lays out as a metrics
	// snapshot (counterLayout).
	sent                              uint64
	drawsInter, drawsIntra, drawsColl uint64
}

// reset returns every flight to the free list and clears the machine
// for its next evaluation, keeping its slices' capacity.
func (m *machine) reset() {
	for i := range m.procs {
		p := &m.procs[i]
		*p = mproc{id: p.id, ops: p.ops, fail: p.fail, loops: p.loops[:0]}
	}
	for i := range m.chans {
		for f := m.chans[i].head; f != nil; {
			next := f.next
			m.freeFlight(f)
			f = next
		}
	}
	clear(m.chans)
	for _, f := range m.pending {
		m.freeFlight(f)
	}
	clear(m.pending)
	clear(m.hot)
	clear(m.recvReady)
	clear(m.inColl)
	m.runnable.fill(len(m.procs))
	*m = machine{
		plan: m.plan, procs: m.procs, pending: m.pending[:0], chans: m.chans, flightFree: m.flightFree, hot: m.hot,
		runnable: m.runnable, recvReady: m.recvReady, inColl: m.inColl,
	}
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

// run alternates sweeps and match phases until every process is done.
// A sweep steps the runnable processes in id order; stepping one makes
// no other runnable, so none is left when it ends, and a match phase
// that releases nobody leaves the model deadlocked.
func (m *machine) run() (*Report, error) {
	for {
		m.sweeps++
		for w, word := range m.runnable {
			m.runnable[w] = 0
			for ; word != 0; word &= word - 1 {
				if err := m.step(&m.procs[w<<6|bits.TrailingZeros64(word)]); err != nil {
					return nil, cmp.Or(m.err, err)
				}
			}
		}
		if m.err != nil {
			return nil, m.err
		}
		if m.done == len(m.procs) {
			// Only an infinite answer takes a clock to +Inf, and it
			// stays there: every other cost is finite and non-negative.
			if r := m.report(); !math.IsInf(r.Makespan, 1) {
				return r, nil
			}
			return nil, errInfiniteCost
		}
		matched := m.match()
		collMatched, err := m.matchCollective()
		if err = cmp.Or(m.err, err); err != nil {
			return nil, err
		}
		if !matched && !collMatched {
			return nil, m.deadlockError()
		}
	}
}

// errInfiniteCost fails an evaluation that a database's infinite answer
// left finishing at +Inf.
var errInfiniteCost = errors.New("pevpm: a process finishes at +Inf s: the performance database answered an infinite cost")

// refuse records the first database answer that cannot be a cost, a
// negative or NaN time. The hot paths test each answer with one
// comparison, !(t >= 0), and go on; run fails the evaluation with the
// error when the phase ends. An infinite answer passes that test, and
// run refuses the makespan it leads to.
func (m *machine) refuse(what string, size int, t float64) {
	if m.err == nil {
		m.err = fmt.Errorf("pevpm: the performance database answered %s = %v s for a %d-byte message: a cost must be finite and non-negative", what, t, size)
	}
}

// The rules of the checks resolution makes on a directive's values,
// named as mpilint reports them.
const (
	RuleEvalError  = "eval-error"     // an expression fails to evaluate (division by zero, ...)
	RuleBadTime    = "bad-time"       // negative or non-finite Serial time
	RuleBadLoop    = "bad-loop-count" // negative, non-finite or int-overflowing (error) or fractional (warning) Loop count
	RuleBadSize    = "bad-size"       // negative, non-finite or int-overflowing (error) or zero (warning) size
	RuleRankBounds = "rank-bounds"    // from/to outside [0, numprocs), or NaN, ±Inf or int-overflowing
	RuleWrongRole  = "wrong-role"     // a send whose from (a receive whose to) is not the executing process
	RuleSelfSend   = "self-send"      // from == to (warning)
)

// Check is one check a directive failed, or warned about, when resolved
// for one process. A failed check is the error Evaluate returns when
// that process reaches the directive.
type Check struct {
	Rule    string
	Warning bool // the directive still runs
	Node    Node
	Proc    int
	// Message states what failed; an eval error's is the expression's
	// own error text.
	Message string
}

func (c *Check) Error() string {
	if c.Rule == RuleEvalError {
		return c.Message
	}
	return "pevpm: " + c.Message
}

// Branch is a Runon one process reached and the index of the branch it
// took: -1 when no condition held or a condition failed to evaluate.
type Branch struct {
	Runon *Runon
	Taken int
}

// Op is one op of a Plan as a reader outside the machine sees it.
type Op struct {
	Node Node // the directive it was resolved from
	Fail bool // the directive failed a check
	Peer int  // Message: the other process
	N    int  // Message, Collective: size in bytes; Loop: passes
	Body int  // Loop: how many of the ops that follow form its body
}

// Ops returns process proc's ops in order.
func (pl *Plan) Ops(proc int) []Op {
	ops := make([]Op, len(pl.ops[proc]))
	for i, o := range pl.ops[proc] {
		ops[i] = Op{Node: pl.nodes[proc][i], Fail: o.kind == opFail, Peer: int(o.peer), N: o.n, Body: int(o.body)}
	}
	return ops
}

// Resolve resolves prog for procs processes as Evaluate would, without a
// database: a Collective is resolved without asking whether a database
// measured it. The plan is built fresh and never cached, so Evaluate
// never runs a plan that skipped those questions.
func Resolve(prog *Program, procs int) (*Plan, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("pevpm: Procs = %d", procs)
	}
	return newPlan(prog, procs, nil, true), nil
}

// planner resolves one program into a plan, one process at a time.
type planner struct {
	*Plan
	db PerfDB
	// record is set when resolving for Resolve: only then does the
	// planner record every check (warnings included) in Checks, every
	// Runon reached in Branches and each op's directive for Ops.
	// Evaluate reads none of them, so its plans do not format a warning
	// or keep a branch or a directive.
	record bool
	// index maps a receive or collective directive to its slot.
	index map[Node]int32

	// id is the process being resolved and env its bindings; buf and at
	// hold its ops so far and the directive of each.
	id  int
	env Env
	buf []op
	at  []Node
}

// newPlan resolves every process's directive tree into ops for procs
// processes, asking db, when there is one, only whether it samples the
// collectives the program names. record says whether the plan records
// its op directives, checks and branches (see planner). Nothing a
// directive reads changes during an evaluation (procnum, numprocs and
// Params are fixed), so each expression is evaluated once here; the
// database is still queried as the ops run.
func newPlan(prog *Program, procs int, db PerfDB, record bool) *Plan {
	bound, depth, slots := shape(prog.Body)
	b := planner{
		Plan: &Plan{
			procs: procs, depth: depth,
			ops: make([][]op, procs), fails: make([]error, procs),
			slots: make([]Node, 0, slots),
		},
		db:     db,
		record: record,
		index:  make(map[Node]int32, slots),
		env:    make(Env, len(prog.Params)+2),
		buf:    make([]op, 0, bound),
		at:     make([]Node, 0, bound),
	}
	if record {
		b.nodes = make([][]Node, procs)
	}
	b.env["numprocs"] = float64(procs)
	for k, v := range prog.Params {
		b.env[k] = v
	}
	_, fixed := prog.Params["procnum"]
	for b.id = range procs {
		if !fixed {
			b.env["procnum"] = float64(b.id)
		}
		b.buf, b.at = b.buf[:0], b.at[:0]
		b.resolve(prog.Body)
		b.ops[b.id] = slices.Clone(b.buf)
		if record {
			b.nodes[b.id] = slices.Clone(b.at)
		}
	}
	b.numberChannels()
	return b.Plan
}

// numberChannels numbers the channels, one per (receiver, sender) pair
// that some Recv op names, in pair order, and gives each Recv op its
// channel and each Send and Isend op its receiver's channel from it, or
// -1 when that receiver never receives from it. The pairs are kept as
// one row per receiver: from[first[to]:first[to+1]] holds the senders
// receiver to receives from, sorted, and the channel of a pair is its
// index in from.
func (pl *Plan) numberChannels() {
	first := make([]int32, len(pl.ops)+1)
	var from []int32
	for to, ops := range pl.ops {
		row := len(from)
		for _, o := range ops {
			if o.kind == opRecv {
				from = append(from, o.peer)
			}
		}
		slices.Sort(from[row:])
		from = from[:row+len(slices.Compact(from[row:]))]
		first[to+1] = int32(len(from))
	}
	pl.chans = len(from)
	channel := func(to, sender int32) int32 {
		if i, ok := slices.BinarySearch(from[first[to]:first[to+1]], sender); ok {
			return first[to] + int32(i)
		}
		return -1
	}
	for id, ops := range pl.ops {
		for i := range ops {
			switch o := &ops[i]; o.kind {
			case opRecv:
				o.ch = channel(int32(id), o.peer)
			case opSend, opIsend:
				o.ch = channel(o.peer, int32(id))
			}
		}
	}
}

// shape bounds what block b resolves to for any one process: ops counts
// its directives, taking the largest branch of each Runon (or its Fail
// op); depth is its deepest Loop nesting; slots counts its receive and
// collective directives.
func shape(b Block) (ops, depth, slots int) {
	for _, d := range b {
		switch d := d.(type) {
		case *Loop:
			n, dd, s := shape(d.Body)
			ops, depth, slots = ops+1+n, max(depth, dd+1), slots+s
		case *Runon:
			most := 1
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

// resolve emits the ops block blk resolves into for the process, making
// the checks executing each directive would make, in the same order. A
// directive that fails a check emits a Fail op instead of its own, and
// resolution goes on so that every check is recorded: a Loop whose count
// fails skips its body, and a Runon whose condition fails takes no
// branch. The process's first failure is the error Evaluate raises when
// the process reaches that Fail op; the ops after it are dead.
func (b *planner) resolve(blk Block) {
	for _, d := range blk {
		var o op
		var err error
		switch d := d.(type) {
		case *Serial:
			o, err = b.serialOp(d)
		case *Msg:
			o, err = b.msgOp(d)
		case *Coll:
			o, err = b.collOp(d)
		case *Loop:
			var n int
			if n, err = b.passes(d); err == nil {
				b.loopOps(d, n)
				continue
			}
		case *Runon:
			var i int
			i, err = b.branch(d)
			if b.record {
				b.Branches = append(b.Branches, Branch{Runon: d, Taken: i})
			}
			if err == nil {
				if i >= 0 {
					b.resolve(d.Bodies[i])
				}
				continue
			}
		default:
			continue
		}
		if err != nil {
			o = op{kind: opFail}
			if b.fails[b.id] == nil {
				b.fails[b.id] = err
			}
		}
		b.emit(o, d)
	}
}

// emit appends op o, resolved from directive d.
func (b *planner) emit(o op, d Node) {
	b.buf, b.at = append(b.buf, o), append(b.at, d)
}

// loopOps emits a Loop op that runs l's body n times, followed by the
// body. A Loop with no passes, or whose body resolves to nothing, emits
// no ops: running it would have no effect.
func (b *planner) loopOps(l *Loop, n int) {
	if n == 0 {
		return
	}
	at := len(b.buf)
	b.emit(op{kind: opLoop, n: n}, l)
	b.resolve(l.Body)
	if len(b.buf) == at+1 {
		b.buf, b.at = b.buf[:at], b.at[:at]
		return
	}
	b.buf[at].body = int32(len(b.buf) - at - 1)
}

// check returns the check directive d failed for the process, or only
// warned about, recording it when the planner records checks. Callers
// make a warning only when it is recorded, so an evaluation's plan
// formats none.
func (b *planner) check(rule string, warn bool, d Node, format string, args ...any) *Check {
	c := &Check{Rule: rule, Warning: warn, Node: d, Proc: b.id, Message: fmt.Sprintf(format, args...)}
	if b.record {
		b.Checks = append(b.Checks, c)
	}
	return c
}

// eval evaluates e, an expression of directive d, under the process's
// bindings; an error fails an eval-error check.
func (b *planner) eval(d Node, e Expr) (float64, error) {
	v, err := e.Eval(b.env)
	if err != nil {
		return 0, b.check(RuleEvalError, false, d, "%v", err)
	}
	return v, nil
}

// intValue converts v, the value of what in directive d, to an int,
// truncating. NaN, ±Inf and values outside the int range fail a check of
// rule: Go leaves their conversion implementation-defined.
func (b *planner) intValue(rule string, d Node, what string, v float64) (int, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, b.check(rule, false, d, "%s %v is not finite", what, v)
	}
	// -math.MinInt, a power of two, is exact as a float64; MaxInt is not.
	if v < math.MinInt || v >= -math.MinInt {
		return 0, b.check(rule, false, d, "%s %v is outside the int range", what, v)
	}
	return int(v), nil
}

// passes is how many times l runs. A negative count fails even when it
// truncates to zero passes; a fractional one warns.
func (b *planner) passes(l *Loop) (int, error) {
	cf, err := b.eval(l, l.Count)
	if err != nil {
		return 0, err
	}
	n, err := b.intValue(RuleBadLoop, l, "Loop count", cf)
	if err != nil {
		return 0, err
	}
	if cf < 0 {
		return 0, b.check(RuleBadLoop, false, l, "Loop count %v is negative", cf)
	}
	if float64(n) != cf && b.record {
		b.check(RuleBadLoop, true, l, "Loop count %v is not an integer; it truncates to %v", cf, float64(n))
	}
	return n, nil
}

// branch is the index of r's first true condition, or -1.
func (b *planner) branch(r *Runon) (int, error) {
	for i, cond := range r.Conds {
		v, err := b.eval(r, cond)
		if err != nil {
			return -1, err
		}
		if v != 0 {
			return i, nil
		}
	}
	return -1, nil
}

func (b *planner) serialOp(s *Serial) (op, error) {
	t, err := b.eval(s, s.Time)
	switch {
	case err != nil:
		return op{}, err
	case math.IsNaN(t) || math.IsInf(t, 0):
		return op{}, b.check(RuleBadTime, false, s, "Serial time %v is not finite", t)
	case t < 0:
		return op{}, b.check(RuleBadTime, false, s, "Serial time %v is negative", t)
	}
	return op{kind: opSerial, secs: t}, nil
}

func (b *planner) msgOp(d *Msg) (op, error) {
	sizeF, err := b.eval(d, d.Size)
	if err != nil {
		return op{}, err
	}
	fromF, err := b.eval(d, d.From)
	if err != nil {
		return op{}, err
	}
	toF, err := b.eval(d, d.To)
	if err != nil {
		return op{}, err
	}
	size, err := b.intValue(RuleBadSize, d, "message size", sizeF)
	if err != nil {
		return op{}, err
	}
	from, err := b.intValue(RuleRankBounds, d, "from =", fromF)
	if err != nil {
		return op{}, err
	}
	to, err := b.intValue(RuleRankBounds, d, "to =", toF)
	if err != nil {
		return op{}, err
	}
	switch {
	case size < 0:
		return op{}, b.check(RuleBadSize, false, d, "message size %d is negative", size)
	case size == 0 && b.record:
		b.check(RuleBadSize, true, d, "message size is zero")
	}
	switch {
	case from < 0 || from >= b.procs:
		return op{}, b.check(RuleRankBounds, false, d, "from = %d is outside [0,%d)", from, b.procs)
	case to < 0 || to >= b.procs:
		return op{}, b.check(RuleRankBounds, false, d, "to = %d is outside [0,%d)", to, b.procs)
	case d.Kind != MsgRecv && from != b.id:
		return op{}, b.check(RuleWrongRole, false, d, "send executed by rank %d but from = %d", b.id, from)
	case d.Kind == MsgRecv && to != b.id:
		return op{}, b.check(RuleWrongRole, false, d, "receive executed by rank %d but to = %d", b.id, to)
	}
	if from == to && b.record {
		b.check(RuleSelfSend, true, d, "rank %d sends to itself", from)
	}
	switch d.Kind {
	case MsgSend:
		return op{kind: opSend, peer: int32(to), n: size}, nil
	case MsgIsend:
		return op{kind: opIsend, peer: int32(to), n: size}, nil
	}
	return op{kind: opRecv, peer: int32(from), n: size, slot: b.slot(d)}, nil
}

// collOp resolves a Collective. With a database it first asks whether the
// database samples collectives and measured this one.
func (b *planner) collOp(d *Coll) (op, error) {
	if b.db != nil {
		cs, ok := b.db.(CollectiveSampler)
		b.askedSampler, b.sampler = true, ok
		if !ok {
			return op{}, fmt.Errorf("pevpm: model uses Collective %s but the database has no collective measurements", d.Op)
		}
		if !b.hasCollective(cs, d.Op) {
			return op{}, fmt.Errorf("pevpm: collective %s not present in the database", d.Op)
		}
	}
	sizeF, err := b.eval(d, d.Size)
	if err != nil {
		return op{}, err
	}
	size, err := b.intValue(RuleBadSize, d, "Collective size", sizeF)
	if err != nil {
		return op{}, err
	}
	if sizeF < 0 {
		return op{}, b.check(RuleBadSize, false, d, "Collective size %v is negative", sizeF)
	}
	if d.Root != nil {
		if _, err := b.eval(d, d.Root); err != nil {
			return op{}, err
		}
	}
	return op{kind: opColl, n: size, slot: b.slot(d)}, nil
}

// hasCollective asks cs whether it measured the collective op, once per
// op; the plan keeps each answer.
func (b *planner) hasCollective(cs CollectiveSampler, op string) bool {
	for _, a := range b.answers {
		if a.op == op {
			return a.has
		}
	}
	has := cs.HasCollective(op)
	b.answers = append(b.answers, collAnswer{op: op, has: has})
	return has
}

// slot returns the hot-spot slot of a receive or collective directive,
// adding one when a process first reaches it. Every process that reaches
// one directive shares its slot, as its waits add up in one hot spot.
func (b *planner) slot(n Node) int32 {
	s, ok := b.index[n]
	if !ok {
		s = int32(len(b.slots))
		b.index[n] = s
		b.slots = append(b.slots, n)
	}
	return s
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
			m.done++
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
			m.recvReady.add(p.id)

		case opColl:
			// The match phase releases all processes together once
			// everyone has arrived.
			m.rec(p.id, p.now, trace.CollectiveStart, -1, 0, o.n)
			p.collSeq++
			p.waitPosted = p.now
			p.state = stateParkedColl
			m.inColl.add(p.id)

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
	if !(busy >= 0) {
		m.refuse("SendBusy", o.n, busy)
	}
	p.now += busy
	p.bd.SendBusy += busy
	m.seq++
	m.sent++
	f := m.newFlight()
	f.seq, f.to, f.ch, f.size = m.seq, to, o.ch, o.n
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
//
//detlint:hotpath
func (m *machine) matchCollective() (bool, error) {
	var coll *op
	seq, parked := -1, 0
	var entryMax float64
	for w, word := range m.inColl {
		for ; word != 0; word &= word - 1 {
			p := &m.procs[w<<6|bits.TrailingZeros64(word)]
			parked++
			if o := p.parkedOn(); coll == nil {
				coll, seq = o, p.collSeq
			} else if o.slot != coll.slot || p.collSeq != seq {
				return false, m.collMismatch(coll, o)
			}
			if p.now > entryMax {
				entryMax = p.now
			}
		}
	}
	if parked < len(m.procs) {
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
	m.drawsColl++
	size := m.procs[0].parkedOn().n
	t := cs.SampleCollective(&m.rng, m.plan.slots[coll.slot].(*Coll).Op, size, m.opts.Procs)
	if !(t >= 0) {
		m.refuse("SampleCollective", size, t)
	}
	completion := entryMax + t
	for i := range m.procs {
		p := &m.procs[i]
		wait := completion - p.waitPosted
		p.bd.RecvWait += wait
		*hot += wait
		p.now = completion
		p.state = stateRunnable
	}
	// Every process was parked in the collective: all run again.
	copy(m.runnable, m.inColl)
	clear(m.inColl)
	return true, nil
}

// collMismatch is the error of processes parked in different
// collectives, a and b.
func (m *machine) collMismatch(a, b *op) error {
	return fmt.Errorf("%w: processes in different collectives (%s vs %s)",
		ErrModelDeadlock, m.plan.slots[a.slot].describe(), m.plan.slots[b.slot].describe())
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
// wakes rendezvous senders, and matches parked receives, reporting
// whether it made any process runnable. Every older flight is already
// determined, so drawing the new ones in (depart, seq) order keeps the
// draw order of a sort over every flight in the air. Only the receivers
// in recvReady are tried, in id order: one that found its channel empty
// when last tried cannot match before a flight joins it, so these are
// the receives a scan of every process would complete, in the same
// order.
//
//detlint:hotpath
func (m *machine) match() bool {
	matched := false
	orderPending(m.pending)
	// Contention is counted separately for the network and for the
	// intra-node loopback path: a message between two CPUs of one node
	// does not occupy the NIC or switch fabric.
	for _, f := range m.pending {
		var t float64
		if f.intra {
			m.drawsIntra++
			if t = m.opts.DB.SampleIntra(&m.rng, f.size, m.intraFlights); !(t >= 0) {
				m.refuse("SampleIntra", f.size, t)
			}
		} else {
			m.drawsInter++
			if t = m.opts.DB.Sample(&m.rng, f.size, m.interFlights); !(t >= 0) {
				m.refuse("Sample", f.size, t)
			}
		}
		f.arrival = f.depart + t
		if s := f.sender; s != nil {
			// Rendezvous completion: the sender was blocked from depart
			// until delivery.
			blocked := f.arrival - s.now
			if blocked > 0 {
				s.bd.SendBusy += blocked
				s.now = f.arrival
			}
			s.state = stateRunnable
			m.runnable.add(s.id)
			f.sender = nil
			matched = true
		}
		if f.ch < 0 {
			// No receive takes it: it stays in the contention levels,
			// as a message nobody receives stays in the air, but its
			// record is free.
			m.freeFlight(f)
			continue
		}
		m.chans[f.ch].push(f)
		if to := &m.procs[f.to]; to.state == stateParkedRecv && to.parkedOn().ch == f.ch {
			m.recvReady.add(f.to)
		}
	}
	m.pending = m.pending[:0]

	// Match parked receives against the heads of their channels.
	for w, word := range m.recvReady {
		m.recvReady[w] = 0
		for ; word != 0; word &= word - 1 {
			if m.matchRecv(&m.procs[w<<6|bits.TrailingZeros64(word)]) {
				matched = true
			}
		}
	}
	return matched
}

// matchRecv completes p's parked receive with the oldest flight of its
// channel, if there is one, and makes p runnable.
//
//detlint:hotpath
func (m *machine) matchRecv(p *mproc) bool {
	recv := p.parkedOn()
	c := &m.chans[recv.ch]
	f := c.head
	if f == nil {
		return false
	}
	if c.head = f.next; c.head == nil {
		c.tail = nil
	}
	// If the message arrived before the receive was posted it was
	// buffered: the receiver only pays the pickup cost. Otherwise the
	// receive completes at the measured arrival time.
	busy := m.opts.DB.RecvBusy(f.size)
	if !(busy >= 0) {
		m.refuse("RecvBusy", f.size, busy)
	}
	completion := f.arrival
	if late := p.waitPosted + busy; late > completion {
		completion = late
	}
	wait := completion - p.waitPosted
	p.bd.RecvWait += wait
	m.hot[recv.slot] += wait
	p.now = completion
	p.state = stateRunnable
	m.runnable.add(p.id)
	if f.intra {
		m.intraFlights--
	} else {
		m.interFlights--
	}
	m.freeFlight(f)
	return true
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
				p.id, m.plan.slots[p.parkedOn().slot].describe(), p.waitPosted))
		case stateParkedSend:
			stuck = append(stuck, fmt.Sprintf("proc %d in rendezvous send", p.id))
		case stateParkedColl:
			stuck = append(stuck, fmt.Sprintf("proc %d in %s (others never arrived)",
				p.id, m.plan.slots[p.parkedOn().slot].describe()))
		}
	}
	return fmt.Errorf("%w: %s", ErrModelDeadlock, strings.Join(stuck, "; "))
}

// report copies the evaluation's outcome out of the machine, which goes
// back to its plan afterwards.
func (m *machine) report() *Report {
	r := &Report{
		Procs:        m.opts.Procs,
		ProcTimes:    make([]float64, len(m.procs)),
		Sweeps:       m.sweeps,
		MessagesSent: m.sent,
		Breakdowns:   make([]Breakdown, len(m.procs)),
		hot:          make([]hotSpot, len(m.hot)),
	}
	for i := range m.procs {
		p := &m.procs[i]
		r.ProcTimes[i] = p.now
		r.Breakdowns[i] = p.bd
		if p.now > r.Makespan {
			r.Makespan = p.now
		}
	}
	for i, wait := range m.hot {
		r.hot[i] = hotSpot{node: m.plan.slots[i], wait: wait}
	}
	counts := [numCounters]uint64{
		ctrDrawsColl:    m.drawsColl,
		ctrDrawsInter:   m.drawsInter,
		ctrDrawsIntra:   m.drawsIntra,
		ctrSent:         m.sent,
		ctrReplications: 1,
		ctrSweeps:       uint64(m.sweeps),
	}
	r.Metrics.Counters = slices.Clone(counterLayout.Counters)
	for j := range r.Metrics.Counters {
		r.Metrics.Counters[j].Value = counts[counterOf[j]]
	}
	return r
}

// An evaluation's counters, indexing report's counts.
const (
	ctrDrawsColl = iota
	ctrDrawsInter
	ctrDrawsIntra
	ctrSent
	ctrReplications
	ctrSweeps
	numCounters
)

// counterLayout is the snapshot of a registry holding an evaluation's
// counters, so a Report lists them in the order a registry would;
// counterOf[j] is the counter at Counters[j].
var counterLayout, counterOf = newCounterLayout()

func newCounterLayout() (metrics.Snapshot, [numCounters]int) {
	reg := metrics.NewRegistry()
	dist := func(d string) *metrics.Counter { return reg.Counter("pevpm", "draws_total", metrics.L("dist", d)) }
	for i, c := range [numCounters]*metrics.Counter{
		ctrDrawsColl:    dist("collective"),
		ctrDrawsInter:   dist("inter"),
		ctrDrawsIntra:   dist("intra"),
		ctrSent:         reg.Counter("pevpm", "messages_sent_total"),
		ctrReplications: reg.Counter("pevpm", "replications_total"),
		ctrSweeps:       reg.Counter("pevpm", "sweeps_total"),
	} {
		c.Add(uint64(i))
	}
	s := reg.Snapshot()
	var of [numCounters]int
	for j, p := range s.Counters {
		of[j] = int(p.Value)
	}
	return s, of
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
