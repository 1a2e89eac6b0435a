package mpi

import (
	"fmt"
	"sort"
)

// Severity levels of runtime lint findings.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Rules the runtime linter can report. They complement the static rules
// in internal/mpilint: these fire on behaviour only visible during an
// execution (leaked request handles, timing-dependent wildcard matches,
// an actual deadlock).
const (
	RulePeerRange     = "peer-range"         // send/recv peer outside [0, Size)
	RuleLeakedRequest = "leaked-request"     // nonblocking request never waited on
	RuleUnconsumed    = "unconsumed-message" // message never received by finalize
	RuleWildcardRace  = "wildcard-race"      // AnySource receive with several candidates
	RuleDeadlock      = "deadlock"           // rank blocked forever

	// RulePatternMatrix flags a group-to-group pattern matrix pair that
	// could never execute: a rank outside the placement, a self-pair, or
	// a non-positive message count. Reported by mpibench's pattern
	// validation before any engine spins up, so a bad matrix is a clean
	// error instead of a mid-run peer-range panic.
	RulePatternMatrix = "pattern-matrix"
)

// Finding is one structured runtime diagnostic. internal/mpilint
// converts these into its richer Finding type for reporting.
type Finding struct {
	Severity string
	Rule     string
	Rank     int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("rank %d: %s[%s]: %s", f.Rank, f.Severity, f.Rule, f.Message)
}

// Linter is the World's lint mode: it shadows every user-level request
// and message so that, at finalize (or at a deadlock), communication
// left dangling can be reported instead of silently dropped. All access
// happens in engine context — rank goroutines run strictly interleaved —
// so no locking is needed.
type Linter struct {
	findings []Finding

	// outstanding holds user-context requests created but not yet
	// finalised by Wait/Waitall.
	outstanding map[*Request]struct{}

	// wildcardWarned limits wildcard-race findings to one per rank so a
	// receive loop does not repeat the same diagnosis thousands of times.
	wildcardWarned map[int]bool
}

// EnableLint switches the job into lint mode and returns the linter that
// accumulates findings. Call it before Launch.
//
//detlint:allow unused -- the ROADMAP's static-vs-runtime lint differential runs mpilint against this linter
func (w *World) EnableLint() *Linter {
	if w.lint == nil {
		w.lint = &Linter{
			outstanding:    make(map[*Request]struct{}),
			wildcardWarned: make(map[int]bool),
		}
	}
	return w.lint
}

// Lint returns the job's linter, or nil when lint mode is off.
//
//detlint:allow unused -- the ROADMAP's static-vs-runtime lint differential reads the runtime findings through it
func (w *World) Lint() *Linter { return w.lint }

// Findings returns the accumulated findings sorted by rank, rule and
// message for deterministic output.
//
//detlint:allow unused -- the ROADMAP's static-vs-runtime lint differential compares these with mpilint's
func (l *Linter) Findings() []Finding {
	out := make([]Finding, len(l.findings))
	copy(out, l.findings)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// Count returns how many findings have the given severity.
//
//detlint:allow unused -- the ROADMAP's static-vs-runtime lint differential counts runtime findings with it
func (l *Linter) Count(severity string) int {
	n := 0
	for _, f := range l.findings {
		if f.Severity == severity {
			n++
		}
	}
	return n
}

func (l *Linter) record(severity, rule string, rank int, format string, args ...any) {
	l.findings = append(l.findings, Finding{
		Severity: severity, Rule: rule, Rank: rank,
		Message: fmt.Sprintf(format, args...),
	})
}

// trackRequest shadows a newly created user-context request.
func (l *Linter) trackRequest(r *Request) {
	if r.ctx == ctxUser {
		l.outstanding[r] = struct{}{}
	}
}

// requestWaited clears a request once the program finalises it.
func (l *Linter) requestWaited(r *Request) {
	delete(l.outstanding, r)
}

// checkWildcard inspects a freshly posted AnySource receive: if messages
// from several distinct sources are already queued, which one the receive
// returns depends on arrival order — a nondeterminism worth flagging.
func (l *Linter) checkWildcard(rs *rankState, r *Request) {
	if r.ctx != ctxUser || r.src != AnySource {
		return
	}
	rank := r.c.rank
	if l.wildcardWarned[rank] {
		return
	}
	sources := map[int]bool{}
	for _, env := range rs.unexpected {
		if matches(r, env) {
			sources[env.src] = true
		}
	}
	if len(sources) < 2 {
		return
	}
	l.wildcardWarned[rank] = true
	var list []int
	for s := range sources {
		list = append(list, s)
	}
	sort.Ints(list)
	l.record(SeverityWarning, RuleWildcardRace, rank,
		"Recv(ANY_SOURCE, tag %d) has queued candidates from ranks %v; the match is arrival-order dependent",
		r.tag, list)
}

// diagnoseDeadlock turns an engine deadlock into per-rank findings
// naming each stuck rank, the operation it is blocked in, and its
// dangling requests and messages.
func (l *Linter) diagnoseDeadlock(w *World) {
	for rank, rs := range w.ranks {
		proc := rs.comm.proc
		if proc == nil || proc.Done() {
			continue
		}
		msg := "blocked"
		if reason := proc.BlockedOn(); reason != "" {
			msg = "blocked in " + reason
		}
		if pend := l.pendingOps(rank); len(pend) > 0 {
			msg += fmt.Sprintf("; outstanding: %v", pend)
		}
		if n := len(userEnvelopes(rs)); n > 0 {
			msg += fmt.Sprintf("; %d unreceived message(s) queued", n)
		}
		l.record(SeverityError, RuleDeadlock, rank, "%s", msg)
	}
}

// pendingOps describes a rank's outstanding requests, sorted for
// deterministic reports.
func (l *Linter) pendingOps(rank int) []string {
	var out []string
	for r := range l.outstanding {
		if r.c.rank == rank {
			out = append(out, r.BlockReason())
		}
	}
	sort.Strings(out)
	return out
}

// userEnvelopes lists a rank's queued user-context messages.
func userEnvelopes(rs *rankState) []*envelope {
	var out []*envelope
	for _, env := range rs.unexpected {
		if env.ctx == ctxUser {
			out = append(out, env)
		}
	}
	return out
}

// finalize runs after every rank returned: requests never finalised and
// messages never received are resource leaks MPI_Finalize would have
// hidden.
func (l *Linter) finalize(w *World) {
	// Collect and sort before recording: iterating the map directly made
	// the raw findings order (everything before the Findings() sort,
	// i.e. Count and any future streaming consumer) depend on map order.
	leaked := make([]*Request, 0, len(l.outstanding))
	for r := range l.outstanding {
		leaked = append(leaked, r)
	}
	sort.Slice(leaked, func(i, j int) bool {
		if leaked[i].c.rank != leaked[j].c.rank {
			return leaked[i].c.rank < leaked[j].c.rank
		}
		return leaked[i].BlockReason() < leaked[j].BlockReason()
	})
	for _, r := range leaked {
		rank := r.c.rank
		switch {
		case !r.done && !r.isSend:
			l.record(SeverityWarning, RuleLeakedRequest, rank,
				"%s posted but never matched or waited", r.BlockReason())
		default:
			l.record(SeverityWarning, RuleLeakedRequest, rank,
				"%s never completed with Wait", r.BlockReason())
		}
	}
	for rank, rs := range w.ranks {
		for _, env := range userEnvelopes(rs) {
			l.record(SeverityWarning, RuleUnconsumed, rank,
				"message from rank %d tag %d size %d was never received", env.src, env.tag, env.size)
		}
	}
}
