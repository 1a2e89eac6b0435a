// Package mpilint statically analyzes communication correctness of
// PEVPM models and, via the runtime hooks in internal/mpi, of simulated
// MPI programs. The paper's premise is that per-message communication
// structure determines cluster performance; mpilint checks that the
// structure a model describes is actually executable — every send has a
// receive, no rank addresses a peer outside the job, and the
// send/receive ordering cannot cycle into a deadlock — before the
// simulator or the virtual parallel machine spends time executing it.
package mpilint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mpi"
)

// Severity classifies a finding. Errors make the model unexecutable (the
// VPM or simulator would fail or hang); warnings are suspicious but
// runnable; info findings are advisory.
type Severity string

// Severity levels, ordered error > warning > info.
const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
	SeverityInfo    Severity = "info"
)

// rank reports severity order for sorting (most severe first).
func (s Severity) rank() int {
	switch s {
	case SeverityError:
		return 0
	case SeverityWarning:
		return 1
	}
	return 2
}

// The static rules. Each is documented with a bad/good example pair in
// docs/MPILINT.md.
const (
	RuleUnboundParam  = "unbound-param"       // expression references a parameter the model never binds
	RuleRankBounds    = "rank-bounds"         // from/to evaluates outside [0, numprocs), or to NaN or ±Inf
	RuleWrongRole     = "wrong-role"          // send whose from (recv whose to) is not the executing rank
	RuleSelfSend      = "self-send"           // from == to
	RuleBadSize       = "bad-size"            // negative, non-finite or int-overflowing (error) or zero (warning) size
	RuleBadLoop       = "bad-loop-count"      // negative, non-finite or int-overflowing (error) or fractional Loop count
	RuleBadTime       = "bad-time"            // negative or non-finite Serial time
	RuleEvalError     = "eval-error"          // expression fails to evaluate (division by zero, ...)
	RuleUnmatchedSend = "unmatched-send"      // more sends a->b than receives
	RuleUnmatchedRecv = "unmatched-recv"      // more receives a->b than sends
	RuleDeadlockCycle = "deadlock-cycle"      // circular wait among blocking operations
	RuleUnreachable   = "unreachable-branch"  // Runon branch no rank ever selects
	RuleCollMismatch  = "collective-mismatch" // ranks execute different collective sequences
)

// Runtime rules re-exported from internal/mpi for a single catalogue.
const (
	RulePeerRange     = mpi.RulePeerRange
	RuleLeakedRequest = mpi.RuleLeakedRequest
	RuleUnconsumed    = mpi.RuleUnconsumed
	RuleWildcardRace  = mpi.RuleWildcardRace
	RuleDeadlock      = mpi.RuleDeadlock
)

// Finding is one diagnostic, structured so the CLI can render it as
// text or JSON.
type Finding struct {
	Severity Severity `json:"severity"`
	Rule     string   `json:"rule"`
	Pos      string   `json:"pos,omitempty"`   // file:line:col of the offending directive
	Rank     int      `json:"rank"`            // rank the finding applies to; -1 = job-wide
	Procs    int      `json:"procs,omitempty"` // world size the analysis ran at
	Message  string   `json:"message"`
}

func (f Finding) String() string {
	s := string(f.Severity) + "[" + f.Rule + "]: " + f.Message
	if f.Pos != "" {
		s = f.Pos + ": " + s
	}
	return s
}

// Count returns how many findings carry the severity.
func Count(fs []Finding, sev Severity) int {
	n := 0
	for _, f := range fs {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// sortFindings orders findings for stable output: by position (file,
// then numeric line and column), then severity, rule and message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if c := comparePos(fs[i].Pos, fs[j].Pos); c != 0 {
			return c < 0
		}
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity.rank() < fs[j].Severity.rank()
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Message < fs[j].Message
	})
}

// comparePos orders "file:line:col" strings with numeric line/column
// comparison, so line 9 sorts before line 51. Empty positions sort
// first (job-wide findings lead the report).
func comparePos(a, b string) int {
	af, al, ac := splitPos(a)
	bf, bl, bc := splitPos(b)
	switch {
	case af != bf:
		if af < bf {
			return -1
		}
		return 1
	case al != bl:
		return al - bl
	default:
		return ac - bc
	}
}

// splitPos breaks a position string ("file:line:col", "file:line",
// "line:col" or "") into file, line and column: it strips numeric
// components off the tail, rightmost last.
func splitPos(p string) (file string, line, col int) {
	var nums []int
	for len(nums) < 2 {
		cut := strings.LastIndexByte(p, ':')
		head, tail := "", p
		if cut >= 0 {
			head, tail = p[:cut], p[cut+1:]
		}
		n, err := strconv.Atoi(tail)
		if err != nil {
			break
		}
		nums = append(nums, n)
		p = head
		if cut < 0 {
			break
		}
	}
	switch len(nums) {
	case 1:
		line = nums[0]
	case 2:
		line, col = nums[1], nums[0]
	}
	return p, line, col
}

// ranksLabel compresses a rank list for messages: "rank 3" or
// "ranks 1,3,5" (capped with an ellipsis).
func ranksLabel(ranks []int) string {
	if len(ranks) == 1 {
		return fmt.Sprintf("rank %d", ranks[0])
	}
	const cap = 6
	s := "ranks "
	for i, r := range ranks {
		if i == cap {
			return s + fmt.Sprintf(",… (%d total)", len(ranks))
		}
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", r)
	}
	return s
}
