package detlint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors analysistest: fixture packages live under
// testdata/src/<name>/, and every line expected to produce a finding
// carries a trailing `// want "substring"` comment (several quoted
// substrings when several findings land on one line). The test fails
// both ways: a finding with no matching want, or a want no finding
// matched.

func fixturePackages(t *testing.T, name string) []*Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, []string{"internal/detlint/testdata/src/" + name})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func runFixture(t *testing.T, name string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	return RunPackages(fixturePackages(t, name), Config{
		Analyzers:          analyzers,
		ForceDeterministic: true,
	})
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses the `// want` comments of every Go file in the
// directory rel below root, keyed by "file:line" using the same
// root-relative labels findings carry.
func collectWants(t *testing.T, root, rel string) map[string][]string {
	t.Helper()
	dir := filepath.Join(root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]string)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		label := rel + "/" + e.Name()
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", label, i+1)
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", key, q, err)
				}
				wants[key] = append(wants[key], s)
			}
			if len(wants[key]) == 0 {
				t.Fatalf("%s: want comment with no quoted substring", key)
			}
		}
	}
	return wants
}

// checkFixture matches findings against the want comments of fixture
// package name, both ways.
func checkFixture(t *testing.T, name string, findings []Finding) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, collectWants(t, root, "internal/detlint/testdata/src/"+name), findings)
}

// checkWants matches findings against want comments, both ways.
func checkWants(t *testing.T, wants map[string][]string, findings []Finding) {
	t.Helper()
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(f.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, rest := range wants {
		for _, w := range rest {
			t.Errorf("%s: expected a finding containing %q, got none", key, w)
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, "wallclock", runFixture(t, "wallclock", WallclockAnalyzer))
}

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, "maprange", runFixture(t, "maprange", MapRangeAnalyzer))
}

func TestHotPathFixture(t *testing.T) {
	checkFixture(t, "hotpath", runFixture(t, "hotpath", HotPathAnalyzer))
}

func TestRNGFixture(t *testing.T) {
	checkFixture(t, "rng", runFixture(t, "rng", RNGAnalyzer))
}

// TestUnusedFixture runs the unused analyzer over a module of its own
// under testdata/unused, since it gathers references from a whole tree:
// internal/lib declares, cmd/app and a nested module (with its own
// go.mod, like perfbench/) call, and lib_test.go's calls do not count.
// The findings must be the same whether the command line names the
// package alone or the whole tree.
func TestUnusedFixture(t *testing.T) {
	repo, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(repo, "internal", "detlint", "testdata", "unused")
	run := func(pattern string) []Finding {
		pkgs, err := LoadPackages(root, []string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		return RunPackages(pkgs, Config{Analyzers: []*Analyzer{UnusedAnalyzer}})
	}
	alone, tree := run("./internal/lib"), run("./...")
	if !reflect.DeepEqual(alone, tree) {
		t.Errorf("the package alone and the whole tree disagree:\n%s--- vs ---\n%s",
			findingLines(alone), findingLines(tree))
	}
	// The stale hatch's finding lands on the directive line itself, so
	// it cannot carry a want comment; match it here and the rest below.
	const lib = "internal/lib/lib.go"
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(lib)))
	if err != nil {
		t.Fatal(err)
	}
	staleLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "fixture: suppresses nothing") {
			staleLine = i + 1
		}
	}
	var rest []Finding
	stale := 0
	for _, f := range alone {
		if f.File == lib && f.Line == staleLine && f.Rule == "unused-directive" {
			stale++
			continue
		}
		rest = append(rest, f)
	}
	if stale != 1 {
		t.Errorf("the hatch at %s:%d that suppresses nothing gave %d unused-directive findings, want 1",
			lib, staleLine, stale)
	}
	checkWants(t, collectWants(t, root, "internal/lib"), rest)
}

// TestDirectiveFixture pins the malformed/stale-directive findings,
// which land on the directive lines themselves and therefore cannot
// carry want comments.
func TestDirectiveFixture(t *testing.T) {
	findings := runFixture(t, "directive") // all analyzers: unused-hatch reporting needs its owner to run
	type exp struct {
		line int
		rule string
	}
	want := []exp{
		{8, "malformed-directive"},  // ordered without justification
		{17, "malformed-directive"}, // allow with unknown analyzer
		{20, "malformed-directive"}, // unknown directive kind
		{23, "malformed-directive"}, // allow without justification
		{28, "unused-directive"},    // well-formed hatch suppressing nothing
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingLines(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Line != w.line || f.Rule != w.rule {
			t.Errorf("finding %d: got line %d rule %s, want line %d rule %s", i, f.Line, f.Rule, w.line, w.rule)
		}
		if f.Severity != SeverityError {
			t.Errorf("finding %d: directive findings must be errors, got %s", i, f.Severity)
		}
	}
}

// TestUnusedHatchNotReportedWhenOwnerSkipped: a maprange hatch must not
// be called stale when the maprange analyzer did not run.
func TestUnusedHatchNotReportedWhenOwnerSkipped(t *testing.T) {
	findings := runFixture(t, "directive", WallclockAnalyzer)
	for _, f := range findings {
		if f.Rule == "unused-directive" {
			t.Errorf("unused-directive reported although its owner analyzer was skipped: %s", f)
		}
	}
}

// TestDeterministicOnlySkipsOutsidePackages: without ForceDeterministic
// a fixture path is outside the deterministic set, so the
// deterministic-only analyzers must stay silent.
func TestDeterministicOnlySkipsOutsidePackages(t *testing.T) {
	findings := RunPackages(fixturePackages(t, "wallclock"), Config{
		Analyzers: []*Analyzer{WallclockAnalyzer},
	})
	if len(findings) != 0 {
		t.Errorf("wallclock ran on a non-deterministic package:\n%s", findingLines(findings))
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []Severity{SeverityWarning, SeverityError} {
		b, err := sev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+sev.String()+`"` {
			t.Errorf("severity %d marshals to %s", sev, b)
		}
		var back Severity
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Errorf("round trip: %v -> %v", sev, back)
		}
	}
	var bad Severity
	if err := bad.UnmarshalJSON([]byte(`"fatal"`)); err == nil {
		t.Error("unknown severity string must not unmarshal")
	}
}

func TestFindingsSorted(t *testing.T) {
	findings := runFixture(t, "wallclock", WallclockAnalyzer)
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
}

func findingLines(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString("  " + f.String() + "\n")
	}
	return sb.String()
}
