package mpilint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/pevpm"
)

// analyzeFixture parses testdata/<name> and analyzes it at the given
// world size.
func analyzeFixture(t *testing.T, name string, procs int) []Finding {
	t.Helper()
	path := filepath.Join("testdata", name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pevpm.ParseFile(name, string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	fs, err := Analyze(prog, Options{Procs: procs})
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return fs
}

// ruleSet returns the distinct rules present, sorted.
func ruleSet(fs []Finding) []string {
	seen := map[string]bool{}
	for _, f := range fs {
		seen[f.Rule] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
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

// TestAnalyzeFixtures is the rule-class matrix required by the issue:
// every rule has at least one failing fixture, and the clean fixtures
// prove the analyzer is quiet on correct models. wantRules is the exact
// set of distinct rules the analysis must produce — no more, no less.
func TestAnalyzeFixtures(t *testing.T) {
	cases := []struct {
		file      string
		procs     int
		wantRules []string
	}{
		// Clean models: silence is the assertion.
		{"clean_ring.pvm", 4, nil},
		{"clean_ring.pvm", 8, nil},
		{"clean_headon_eager.pvm", 2, nil},

		// Deadlocks.
		{"deadlock_ring.pvm", 4, []string{RuleDeadlockCycle}},
		{"deadlock_headon.pvm", 2, []string{RuleDeadlockCycle}},
		{"deadlock_recv_first.pvm", 2, []string{RuleDeadlockCycle}},

		// Count mismatches.
		{"unmatched_send.pvm", 2, []string{RuleUnmatchedSend}},
		{"unmatched_recv.pvm", 2, []string{RuleUnmatchedRecv}},

		// Per-directive structural errors.
		{"rank_oob.pvm", 4, []string{pevpm.RuleRankBounds}},
		{"wrong_role.pvm", 2, []string{pevpm.RuleWrongRole}},
		{"self_send.pvm", 2, []string{pevpm.RuleSelfSend}},
		{"bad_size.pvm", 2, []string{pevpm.RuleBadSize}},
		{"bad_loop.pvm", 2, []string{pevpm.RuleBadLoop}},
		{"bad_time.pvm", 2, []string{pevpm.RuleBadTime}},
		{"bad_nonfinite.pvm", 2, []string{pevpm.RuleBadTime, pevpm.RuleBadLoop, pevpm.RuleBadSize, pevpm.RuleRankBounds}},
		{"eval_error.pvm", 2, []string{pevpm.RuleEvalError}},
		{"bad_root.pvm", 4, []string{pevpm.RuleEvalError}},
		{"mixed_severity.pvm", 3, []string{pevpm.RuleBadLoop}},

		// Whole-model checks.
		{"unbound_param.pvm", 4, []string{RuleUnboundParam}},
		{"unreachable.pvm", 4, []string{RuleUnreachable}},
		{"coll_mismatch.pvm", 4, []string{RuleCollMismatch}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			fs := analyzeFixture(t, tc.file, tc.procs)
			got := ruleSet(fs)
			want := append([]string{}, tc.wantRules...)
			sort.Strings(want)
			if !equalSets(got, want) {
				t.Errorf("procs=%d: rules = %v, want %v\nfindings:\n%s",
					tc.procs, got, want, dump(fs))
			}
		})
	}
}

// TestAnalyzeMixedSeverity: a directive that warns on some ranks and
// fails on others reports the error too. At three processes the loop
// count 1.5 - procnum truncates on ranks 0 and 1 (a warning) and is
// negative on rank 2 (an error, which Evaluate raises).
func TestAnalyzeMixedSeverity(t *testing.T) {
	fs := analyzeFixture(t, "mixed_severity.pvm", 3)
	got := make(map[Severity][]int)
	for _, f := range fs {
		if f.Rule != pevpm.RuleBadLoop {
			t.Fatalf("unexpected finding %s", f)
		}
		got[f.Severity] = append(got[f.Severity], f.Rank)
	}
	if len(fs) != 2 || len(got[SeverityError]) != 1 || got[SeverityError][0] != 2 ||
		len(got[SeverityWarning]) != 1 || got[SeverityWarning][0] != 0 {
		t.Errorf("want one error from rank 2 and one warning from rank 0, got:\n%s", dump(fs))
	}
}

func dump(fs []Finding) string {
	s := ""
	for _, f := range fs {
		s += "  " + f.String() + "\n"
	}
	return s
}

// TestAnalyzeJacobiClean: the shipped Jacobi model (the paper's Figure
// 5 program) must lint completely clean at the paper's 8-process
// configuration — the CLI smoke test in ci.sh depends on this.
func TestAnalyzeJacobiClean(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "jacobi", "jacobi.pvm"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pevpm.ParseFile("jacobi.pvm", string(src))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(prog, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("jacobi.pvm at 8 procs produced findings:\n%s", dump(fs))
	}
}

// TestDeadlockCycleNamesRanks: the circular-wait message must name every
// rank in the cycle and the operations they are parked in.
func TestDeadlockCycleNamesRanks(t *testing.T) {
	fs := analyzeFixture(t, "deadlock_headon.pvm", 2)
	if len(fs) != 1 {
		t.Fatalf("findings = \n%s", dump(fs))
	}
	f := fs[0]
	if f.Severity != SeverityError {
		t.Errorf("severity = %s", f.Severity)
	}
	for _, want := range []string{"circular wait", "rank 0", "rank 1", "send to"} {
		if !strings.Contains(f.Message, want) {
			t.Errorf("message %q missing %q", f.Message, want)
		}
	}
	if f.Pos == "" {
		t.Error("cycle finding has no position")
	}
}

// TestFindingsCarryPositions: every per-directive finding must cite
// file:line so editors can jump to it.
func TestFindingsCarryPositions(t *testing.T) {
	fs := analyzeFixture(t, "rank_oob.pvm", 4)
	if len(fs) != 1 {
		t.Fatalf("findings = \n%s", dump(fs))
	}
	if want := "rank_oob.pvm:3"; !strings.Contains(fs[0].Pos, want) {
		t.Errorf("pos = %q, want prefix %q", fs[0].Pos, want)
	}
}

// TestDedupAggregatesRanks: a directive broken for many ranks yields one
// finding listing the ranks, not one finding per rank.
func TestDedupAggregatesRanks(t *testing.T) {
	fs := analyzeFixture(t, "rank_oob.pvm", 4)
	if len(fs) != 1 {
		t.Fatalf("expected 1 deduplicated finding, got:\n%s", dump(fs))
	}
	if !strings.Contains(fs[0].Message, "ranks 0,1,2,3") {
		t.Errorf("message %q does not aggregate ranks", fs[0].Message)
	}
}

// TestEagerLimitOption: the head-on exchange deadlocks exactly when the
// configured eager limit drops below the message size.
func TestEagerLimitOption(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "clean_headon_eager.pvm"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pevpm.ParseFile("clean_headon_eager.pvm", string(src))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(prog, Options{Procs: 2, EagerLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	got := ruleSet(fs)
	if !equalSets(got, []string{RuleDeadlockCycle}) {
		t.Errorf("with EagerLimit=512 rules = %v, want [%s]\n%s",
			got, RuleDeadlockCycle, dump(fs))
	}
}

// TestSortFindingsNumericPositions: findings on line 9 must precede
// line 51 — positions compare numerically, not lexically.
func TestSortFindingsNumericPositions(t *testing.T) {
	fs := []Finding{
		{Pos: "m.pvm:51:11", Rule: "a"},
		{Pos: "m.pvm:9:11", Rule: "b"},
		{Pos: "", Rule: "c"},
		{Pos: "m.pvm:9:2", Rule: "d"},
	}
	sortFindings(fs)
	var order []string
	for _, f := range fs {
		order = append(order, f.Rule)
	}
	if got := strings.Join(order, ""); got != "cdba" {
		t.Errorf("order = %q, want cdba (%v)", got, fs)
	}
}

// TestAnalyzeRejectsBadOptions covers the error paths.
func TestAnalyzeRejectsBadOptions(t *testing.T) {
	if _, err := Analyze(nil, Options{Procs: 2}); err == nil {
		t.Error("nil program accepted")
	}
	prog := pevpm.NewProgram()
	if _, err := Analyze(prog, Options{Procs: 0}); err == nil {
		t.Error("Procs=0 accepted")
	}
}
