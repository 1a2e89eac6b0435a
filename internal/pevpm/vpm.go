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
	// snapshot, folded in replication order by EvaluateN. (Evaluate
	// itself does not touch it; single evaluations expose their snapshot
	// via Report.Metrics.)
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
// stacks and the hot-spot waits.
func (pl *Plan) newMachine() *machine {
	m := &machine{plan: pl, procs: make([]mproc, pl.procs), hot: make([]float64, len(pl.slots))}
	loops := make([]loop, pl.procs*pl.depth)
	for i := range m.procs {
		p := &m.procs[i]
		p.id, p.ops, p.fail = i, pl.ops[i], pl.fails[i]
		p.loops = loops[i*pl.depth : i*pl.depth : (i+1)*pl.depth]
	}
	return m
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
	// receiver's inbox.
	pending []*flight
	// interFlights and intraFlights count every flight in the air,
	// pending or in an inbox: the contention levels match samples under.
	interFlights, intraFlights int
	// flightFree recycles flight records: a long model run moves many
	// messages but only a bounded number are ever in the air at once.
	flightFree []*flight
	seq        uint64
	sweeps     int
	// inColl counts the processes parked in a collective.
	inColl int

	// hot holds the wait of each of the plan's hot-spot slots.
	hot []float64

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
		for _, f := range p.inbox {
			m.freeFlight(f)
		}
		clear(p.inbox)
		*p = mproc{id: p.id, ops: p.ops, fail: p.fail, loops: p.loops[:0], inbox: p.inbox[:0]}
	}
	for _, f := range m.pending {
		m.freeFlight(f)
	}
	clear(m.pending)
	clear(m.hot)
	*m = machine{plan: m.plan, procs: m.procs, pending: m.pending[:0], flightFree: m.flightFree, hot: m.hot}
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
	return b.Plan
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
			m.inColl++

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
//
//detlint:hotpath
func (m *machine) matchCollective() (bool, error) {
	if m.inColl == 0 {
		return false, nil
	}
	var coll *op
	seq := -1
	var entryMax float64
	for i := range m.procs {
		p := &m.procs[i]
		if p.state != stateParkedColl {
			continue
		}
		if o := p.parkedOn(); coll == nil {
			coll, seq = o, p.collSeq
		} else if o.slot != coll.slot || p.collSeq != seq {
			return false, m.collMismatch(coll, o)
		}
		if p.now > entryMax {
			entryMax = p.now
		}
	}
	if m.inColl < len(m.procs) {
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
	completion := entryMax + cs.SampleCollective(&m.rng, m.plan.slots[coll.slot].(*Coll).Op, m.procs[0].parkedOn().n, m.opts.Procs)
	for i := range m.procs {
		p := &m.procs[i]
		wait := completion - p.waitPosted
		p.bd.RecvWait += wait
		*hot += wait
		p.now = completion
		p.state = stateRunnable
	}
	m.inColl = 0
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
			m.drawsIntra++
			f.arrival = f.depart + m.opts.DB.SampleIntra(&m.rng, f.size, m.intraFlights)
		} else {
			m.drawsInter++
			f.arrival = f.depart + m.opts.DB.Sample(&m.rng, f.size, m.interFlights)
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
		m.hot[recv.slot] += wait
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

// EvaluateN runs independent Monte-Carlo evaluations with derived seeds
// and returns the summary of their makespans — the paper runs many
// iterations "so that the statistical error in the mean is negligibly
// small". Makespans and, when opts.Metrics is set, instrument snapshots
// fold in replication order; the first replication error stops the run.
func EvaluateN(prog *Program, opts Options, n int) (stats.Summary, error) {
	var sum stats.Summary
	for i := 0; i < n; i++ {
		o := opts
		o.Seed = opts.Seed + uint64(i)*7919
		rep, err := Evaluate(prog, o)
		if err != nil {
			return stats.Summary{}, err
		}
		sum.Add(rep.Makespan)
		if opts.Metrics != nil {
			opts.Metrics.Merge(rep.Metrics)
		}
	}
	return sum, nil
}
