package mpilint

import (
	"fmt"
	"sort"

	"repro/internal/pevpm"
)

// Options configures one static analysis of a PEVPM model.
type Options struct {
	// Procs is the world size the model is analyzed at. Rank-dependent
	// expressions are resolved for every procnum in 0..Procs-1.
	Procs int

	// EagerLimit is the eager/rendezvous protocol switch in bytes:
	// blocking sends strictly above it block until the receiver matches
	// (MPICH 1.2.0 over TCP switches at 16 KB, the paper's setup).
	// Zero selects the default.
	EagerLimit int

	// MaxUnroll caps how many iterations of each Loop the deadlock
	// search unrolls. Two iterations expose cross-iteration ordering
	// hazards; message-count matching always uses the full counts.
	// Zero selects the default.
	MaxUnroll int
}

// DefaultEagerLimit is MPICH 1.2.0's eager/rendezvous switch.
const DefaultEagerLimit = 16 * 1024

const defaultMaxUnroll = 2

// maxOpsPerRank bounds the unrolled operation sequence so a pathological
// model cannot make the deadlock search explode.
const maxOpsPerRank = 1 << 16

// Analyze statically checks a parsed PEVPM model for communication
// bugs. It reads pevpm's resolution of the model at opts.Procs
// processes, the one pevpm.Evaluate runs: every rank's ops, the checks
// its directives failed and the Runon branches it took. It reports each
// failed check, balances send and receive counts per rank pair, and
// searches the blocking-operation graph for deadlock cycles. Findings
// are sorted by position and severity.
func Analyze(prog *pevpm.Program, opts Options) ([]Finding, error) {
	plan, err := pevpm.Resolve(prog, opts.Procs)
	if err != nil {
		return nil, err
	}
	if opts.EagerLimit == 0 {
		opts.EagerLimit = DefaultEagerLimit
	}
	if opts.MaxUnroll <= 0 {
		opts.MaxUnroll = defaultMaxUnroll
	}
	a := &analyzer{
		prog:  prog,
		opts:  opts,
		dedup: make(map[dedupKey]*pending),
		taken: make(map[*pevpm.Runon][]bool),
		pairs: make(map[pair]*pairCount),
	}
	a.run(plan)
	sortFindings(a.findings)
	return a.findings, nil
}

type pair struct{ from, to int }

// pairCount balances messages on one directed rank pair. Counts are
// float64 because they are weighted by (possibly large) loop counts.
type pairCount struct {
	sends, recvs       float64
	sendNode, recvNode *pevpm.Msg
}

// op is one communication operation in a rank's unrolled sequence, the
// unit of the deadlock search.
type op struct {
	send     bool
	blocking bool // rendezvous send: parks until the receive matches
	peer     int
	node     *pevpm.Msg
}

type dedupKey struct {
	rule    string
	node    pevpm.Node
	warning bool
}

// pending aggregates one (rule, directive, severity) check over all
// ranks that trigger it, so a bad directive yields one finding per
// severity, not Procs.
type pending struct {
	first *pevpm.Check
	ranks []int
}

type analyzer struct {
	prog *pevpm.Program
	opts Options

	findings []Finding
	dedup    map[dedupKey]*pending
	dedupSeq []dedupKey // insertion order, for deterministic finalization

	// taken holds, for each Runon some rank reached, which of its
	// branches some rank took.
	taken map[*pevpm.Runon][]bool
	pairs map[pair]*pairCount

	// mismatched marks pairs already reported by count matching, so the
	// deadlock search does not re-report the same root cause.
	mismatched map[pair]bool

	// truncated marks ranks whose unrolled sequence lost operations to
	// the MaxUnroll cut (or to maxOpsPerRank): they run out of
	// operations before their real program does.
	truncated []bool
}

func (a *analyzer) run(plan *pevpm.Plan) {
	if !a.checkParams() {
		// Unbound parameters poison every evaluation; stop at the
		// model's equivalent of a compile error.
		return
	}
	for _, c := range plan.Checks {
		a.report(c)
	}
	for _, b := range plan.Branches {
		taken := a.taken[b.Runon]
		if taken == nil {
			taken = make([]bool, len(b.Runon.Conds))
			a.taken[b.Runon] = taken
		}
		if b.Taken >= 0 {
			taken[b.Taken] = true
		}
	}
	seqs := make([][]op, a.opts.Procs)
	colls := make([][]string, a.opts.Procs)
	a.truncated = make([]bool, a.opts.Procs)
	for r := range seqs {
		ops := plan.Ops(r)
		a.count(r, ops, 1)
		seqs[r], colls[r], a.truncated[r] = a.unroll(ops)
	}
	a.checkUnreachable()
	a.checkPairs()
	a.checkCollectives(colls)
	a.simulate(seqs)
	a.finalizeDedup()
	for i := range a.findings {
		a.findings[i].Procs = a.opts.Procs
	}
}

// report records a check a directive failed or warned about,
// deduplicated per (rule, node, severity) across ranks; the first
// triggering rank's check is kept. A directive that only warns on some
// ranks but fails on others reports both, so the error is not hidden
// behind the first rank's warning.
func (a *analyzer) report(c *pevpm.Check) {
	key := dedupKey{c.Rule, c.Node, c.Warning}
	if p, ok := a.dedup[key]; ok {
		p.ranks = append(p.ranks, c.Proc)
		return
	}
	a.dedup[key] = &pending{first: c, ranks: []int{c.Proc}}
	a.dedupSeq = append(a.dedupSeq, key)
}

// reportGlobal records a job-wide finding (rank -1) directly.
func (a *analyzer) reportGlobal(sev Severity, rule string, node pevpm.Node, format string, args ...any) {
	pos := ""
	if node != nil {
		pos = node.Pos().String()
	}
	a.findings = append(a.findings, Finding{
		Severity: sev, Rule: rule, Pos: pos, Rank: -1,
		Message: fmt.Sprintf(format, args...),
	})
}

func (a *analyzer) finalizeDedup() {
	for _, key := range a.dedupSeq {
		p := a.dedup[key]
		sort.Ints(p.ranks)
		msg := p.first.Message
		if len(p.ranks) > 1 {
			msg += " (" + ranksLabel(p.ranks) + ")"
		}
		sev := SeverityError
		if key.warning {
			sev = SeverityWarning
		}
		a.findings = append(a.findings, Finding{
			Severity: sev, Rule: key.rule, Pos: key.node.Pos().String(),
			Rank: p.ranks[0], Message: msg,
		})
	}
}

// checkParams verifies every expression's free variables are bound by a
// Param or the builtin procnum/numprocs. It returns false when unbound
// parameters were found.
func (a *analyzer) checkParams() bool {
	bound := map[string]bool{"procnum": true, "numprocs": true}
	for k := range a.prog.Params {
		bound[k] = true
	}
	seen := map[string]bool{}
	ok := true
	pevpm.Walk(a.prog.Body, func(n pevpm.Node) bool {
		for _, e := range nodeExprs(n) {
			for _, v := range pevpm.Vars(e) {
				if bound[v] || seen[v] {
					continue
				}
				seen[v] = true
				ok = false
				a.reportGlobal(SeverityError, RuleUnboundParam, n,
					"%q is not a Param and not procnum/numprocs", v)
			}
		}
		return true
	})
	return ok
}

// nodeExprs lists every expression a directive evaluates.
func nodeExprs(n pevpm.Node) []pevpm.Expr {
	switch node := n.(type) {
	case *pevpm.Loop:
		return []pevpm.Expr{node.Count}
	case *pevpm.Runon:
		return node.Conds
	case *pevpm.Msg:
		return []pevpm.Expr{node.Size, node.From, node.To}
	case *pevpm.Coll:
		if node.Root != nil {
			return []pevpm.Expr{node.Size, node.Root}
		}
		return []pevpm.Expr{node.Size}
	case *pevpm.Serial:
		return []pevpm.Expr{node.Time}
	}
	return nil
}

// count adds rank's ops to the pair balance, each message weighted by
// the product of the passes of the Loops around it: full loop counts, so
// the balance is exact even though the deadlock search truncates.
func (a *analyzer) count(rank int, ops []pevpm.Op, weight float64) {
	for i := 0; i < len(ops); i++ {
		o := ops[i]
		switch node := o.Node.(type) {
		case *pevpm.Loop:
			a.count(rank, ops[i+1:i+1+o.Body], weight*float64(o.N))
			i += o.Body
		case *pevpm.Msg:
			if o.Fail {
				continue
			}
			send := node.Kind != pevpm.MsgRecv
			k := pair{o.Peer, rank}
			if send {
				k = pair{rank, o.Peer}
			}
			pc := a.pairs[k]
			if pc == nil {
				pc = &pairCount{}
				a.pairs[k] = pc
			}
			if send {
				pc.sends += weight
				if pc.sendNode == nil {
					pc.sendNode = node
				}
			} else {
				pc.recvs += weight
				if pc.recvNode == nil {
					pc.recvNode = node
				}
			}
		}
	}
}

// unroll turns a rank's ops into the ordered operation sequence the
// deadlock search runs, with each Loop cut to MaxUnroll passes, plus the
// ordered list of collectives it enters, a failed one included.
// truncated reports whether the cut dropped any of the rank's messages.
func (a *analyzer) unroll(ops []pevpm.Op) (seq []op, colls []string, truncated bool) {
	var walk func(ops []pevpm.Op)
	walk = func(ops []pevpm.Op) {
		for i := 0; i < len(ops); i++ {
			if len(seq) >= maxOpsPerRank {
				truncated = true
				return
			}
			o := ops[i]
			switch node := o.Node.(type) {
			case *pevpm.Loop:
				body, before := ops[i+1:i+1+o.Body], len(seq)
				for range min(o.N, a.opts.MaxUnroll) {
					walk(body)
				}
				if o.N > a.opts.MaxUnroll && len(seq) > before {
					truncated = true
				}
				i += o.Body
			case *pevpm.Msg:
				if !o.Fail {
					seq = append(seq, op{
						send:     node.Kind != pevpm.MsgRecv,
						blocking: node.Kind == pevpm.MsgSend && o.N > a.opts.EagerLimit,
						peer:     o.Peer,
						node:     node,
					})
				}
			case *pevpm.Coll:
				colls = append(colls, node.Op)
			}
		}
	}
	walk(ops)
	return seq, colls, truncated
}

// checkUnreachable reports Runon branches no rank ever selects. A branch
// can be dead because its condition is false for every rank, or because
// an earlier condition shadows it (Runon has if/else-if semantics).
func (a *analyzer) checkUnreachable() {
	pevpm.Walk(a.prog.Body, func(n pevpm.Node) bool {
		node, ok := n.(*pevpm.Runon)
		if !ok {
			return true
		}
		taken, reached := a.taken[node]
		for i, cond := range node.Conds {
			if reached && !taken[i] {
				a.reportGlobal(SeverityWarning, RuleUnreachable, node,
					"Runon branch %d (condition %s) is never taken by any of %d ranks",
					i+1, cond.String(), a.opts.Procs)
			}
		}
		return true
	})
}

// checkPairs balances send against receive counts on every rank pair.
func (a *analyzer) checkPairs() {
	a.mismatched = make(map[pair]bool)
	keys := make([]pair, 0, len(a.pairs))
	for k := range a.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		pc := a.pairs[k]
		switch {
		case pc.sends > pc.recvs:
			a.mismatched[k] = true
			node := pc.sendNode
			a.findings = append(a.findings, Finding{
				Severity: SeverityError, Rule: RuleUnmatchedSend,
				Pos: node.Pos().String(), Rank: k.from,
				Message: fmt.Sprintf("%.0f message(s) from rank %d to rank %d have no matching receive (%.0f sent, %.0f received)",
					pc.sends-pc.recvs, k.from, k.to, pc.sends, pc.recvs),
			})
		case pc.recvs > pc.sends:
			a.mismatched[k] = true
			node := pc.recvNode
			a.findings = append(a.findings, Finding{
				Severity: SeverityError, Rule: RuleUnmatchedRecv,
				Pos: node.Pos().String(), Rank: k.to,
				Message: fmt.Sprintf("%.0f receive(s) on rank %d from rank %d are never satisfied (%.0f sent, %.0f received)",
					pc.recvs-pc.sends, k.to, k.from, pc.sends, pc.recvs),
			})
		}
	}
}

// checkCollectives verifies every rank enters the same collective
// sequence; a rank skipping (or adding) a collective hangs the job.
func (a *analyzer) checkCollectives(colls [][]string) {
	ref := colls[0]
	for r := 1; r < len(colls); r++ {
		if equalStrings(colls[r], ref) {
			continue
		}
		a.reportGlobal(SeverityError, RuleCollMismatch, nil,
			"rank %d executes collectives %v but rank 0 executes %v", r, colls[r], ref)
		return
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simulate runs the per-iteration communication schedule abstractly:
// every rank advances through its unrolled operation sequence; eager
// sends complete immediately, rendezvous sends park until received, and
// receives park until a message from their peer is queued. When no rank
// can advance, the ranks still holding operations are stuck, and a cycle
// in their wait-for graph is a guaranteed deadlock.
func (a *analyzer) simulate(seqs [][]op) {
	P := len(seqs)
	// fifos holds in-flight messages per directed pair, in send order
	// (MPI's non-overtaking rule); true marks a rendezvous message whose
	// sender is parked until it is received.
	fifos := make(map[pair][]bool)
	pcs := make([]int, P)
	posted := make([]bool, P)  // current send already enqueued
	cleared := make([]bool, P) // current rendezvous send was received
	for {
		progress := false
		for r := 0; r < P; r++ {
			for pcs[r] < len(seqs[r]) {
				o := seqs[r][pcs[r]]
				if o.send {
					k := pair{r, o.peer}
					if !posted[r] {
						fifos[k] = append(fifos[k], o.blocking)
						posted[r] = true
						// Posting is progress: a rank scanned earlier in
						// this round may be parked waiting for exactly
						// this message.
						progress = true
					}
					if o.blocking && !cleared[r] {
						break // parked in rendezvous send
					}
				} else {
					k := pair{o.peer, r}
					q := fifos[k]
					if len(q) == 0 {
						break // parked in receive
					}
					if q[0] {
						cleared[o.peer] = true
						progress = true
					}
					fifos[k] = q[1:]
				}
				pcs[r]++
				posted[r] = false
				cleared[r] = false
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	stuck := make(map[int]op)
	for r := 0; r < P; r++ {
		if pcs[r] < len(seqs[r]) {
			stuck[r] = seqs[r][pcs[r]]
		}
	}
	if len(stuck) == 0 {
		return
	}
	a.reportStuck(stuck)
}

// reportStuck classifies the ranks the abstract schedule left blocked:
// cycles in the wait-for graph become deadlock findings; acyclic stalls
// are only reported when count matching did not already explain them
// and the wait does not end at a rank whose sequence the unroll cut.
func (a *analyzer) reportStuck(stuck map[int]op) {
	const (
		unvisited = 0
		onPath    = 1
		done      = 2
	)
	color := make(map[int]int)
	ranks := make([]int, 0, len(stuck))
	for r := range stuck {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	inCycle := make(map[int]bool)
	for _, start := range ranks {
		if color[start] != unvisited {
			continue
		}
		var path []int
		index := make(map[int]int)
		cur := start
		for {
			if _, isStuck := stuck[cur]; !isStuck {
				break
			}
			if color[cur] == done {
				break
			}
			if at, seen := index[cur]; seen {
				cycle := path[at:]
				a.reportCycle(cycle, stuck)
				for _, r := range cycle {
					inCycle[r] = true
				}
				break
			}
			index[cur] = len(path)
			path = append(path, cur)
			color[cur] = onPath
			cur = stuck[cur].peer
		}
		for _, r := range path {
			color[r] = done
		}
	}
	for _, r := range ranks {
		if inCycle[r] {
			continue
		}
		o := stuck[r]
		k := pair{o.peer, r}
		if o.send {
			k = pair{r, o.peer}
		}
		if a.mismatched[k] {
			continue // root cause already reported by count matching
		}
		if a.waitsOnTruncated(r, stuck) {
			continue // what r waits for lies beyond the unrolled iterations
		}
		a.findings = append(a.findings, Finding{
			Severity: SeverityError, Rule: RuleDeadlockCycle,
			Pos: o.node.Pos().String(), Rank: r,
			Message: fmt.Sprintf("rank %d is permanently blocked in %s waiting on rank %d",
				r, pevpm.Describe(o.node), o.peer),
		})
	}
}

// waitsOnTruncated reports whether the wait-for chain from stuck rank r
// ends at a rank that ran out of unrolled operations because a loop was
// cut at MaxUnroll: the operation the chain waits for lies in the
// iterations the search did not unroll, so the stall is an artifact of
// the cut (a task farm's master receives every task's result, while
// each worker's task loop is unrolled twice).
func (a *analyzer) waitsOnTruncated(r int, stuck map[int]op) bool {
	for hops := 0; hops <= len(stuck); hops++ {
		o, isStuck := stuck[r]
		if !isStuck {
			return a.truncated[r]
		}
		r = o.peer
	}
	return false // the chain ends in a cycle, reported on its own
}

func (a *analyzer) reportCycle(cycle []int, stuck map[int]op) {
	// Rotate so the smallest rank leads, for deterministic messages.
	min := 0
	for i, r := range cycle {
		if r < cycle[min] {
			min = i
		}
	}
	rot := append(append([]int{}, cycle[min:]...), cycle[:min]...)
	msg := "circular wait: "
	for i, r := range rot {
		if i > 0 {
			msg += " -> "
		}
		o := stuck[r]
		kind := "recv from"
		if o.send {
			kind = "send to"
		}
		msg += fmt.Sprintf("rank %d (%s %d at %s)", r, kind, o.peer, o.node.Pos())
	}
	a.findings = append(a.findings, Finding{
		Severity: SeverityError, Rule: RuleDeadlockCycle,
		Pos: stuck[rot[0]].node.Pos().String(), Rank: rot[0],
		Message: msg,
	})
}
