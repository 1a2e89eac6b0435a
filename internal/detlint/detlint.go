// Package detlint statically enforces the determinism and zero-alloc
// contracts the simulator relies on: bit-identical sweeps, metrics and
// traces at any worker count, healthy or under fault injection.
//
// The suite is shaped like golang.org/x/tools/go/analysis — named
// analyzers over a typed Pass, findings with positions, severities and
// suggested fixes — but is built entirely on the standard library
// (go/ast, go/types with the source importer), because this repository
// deliberately has no external dependencies. Porting an analyzer to the
// real go/analysis framework is a mechanical change of the Run
// signature.
//
// Five analyzer families ship today (see docs/DETLINT.md for the full
// rule catalogue and escape-hatch grammar):
//
//   - wallclock: no nondeterministic input sources (time.Now, global
//     math/rand, os.Getenv, multi-way select, ...) reachable from
//     deterministic packages.
//   - maprange: no unordered map iteration that can feed output,
//     hashing, folding or event scheduling, unless provably
//     order-insensitive or justified with //detlint:ordered.
//   - hotpath: functions annotated //detlint:hotpath must stay
//     allocation-free: no capturing closures, interface boxing,
//     fmt calls, string concatenation or growth-by-append.
//   - rng: every RNG must be a named engine stream or a per-cell
//     substream derived via sim.SubSeed/sim.NewCellRNG, so sweep cells
//     can never couple.
//   - unused: every exported identifier of an internal/ package is
//     referenced by some non-test code in the module, or carries a
//     //detlint:allow unused hatch saying why it stays.
package detlint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity ranks a finding. Errors are contract violations; warnings
// are allocation hazards that need either a fix or a justified
// annotation before the gate treats them as clean (-werror).
type Severity int

const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its stable string form so the
// -json schema does not leak iota values.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the string form written by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "error":
		*s = SeverityError
	case "warning":
		*s = SeverityWarning
	default:
		return fmt.Errorf("detlint: unknown severity %q", v)
	}
	return nil
}

// Fix is a mechanically applicable suggestion attached to a finding.
// Replacement, when non-empty, is the source text that should replace
// the flagged expression or statement.
type Fix struct {
	Description string `json:"description"`
	Replacement string `json:"replacement,omitempty"`
}

// Finding is one rule violation at one source position.
type Finding struct {
	Analyzer string   `json:"analyzer"`
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Fix      *Fix     `json:"fix,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s/%s]",
		f.File, f.Line, f.Col, f.Severity, f.Message, f.Analyzer, f.Rule)
}

// Count returns the number of findings at the given severity.
func Count(fs []Finding, sev Severity) int {
	n := 0
	for _, f := range fs {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// Analyzer is one named family of checks, run once per package.
type Analyzer struct {
	Name string
	Doc  string
	// DeterministicOnly restricts the analyzer to packages in the
	// deterministic set (hotpath is annotation-driven and runs
	// everywhere).
	DeterministicOnly bool
	Run               func(*Pass)
}

// All lists the five analyzer families in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{WallclockAnalyzer, MapRangeAnalyzer, HotPathAnalyzer, RNGAnalyzer, UnusedAnalyzer}
}

// DefaultDeterministic names the packages subject to the determinism
// contract (module-relative; each entry covers its subpackages). The
// first eight are the core simulation packages whose bit-identical
// output the golden files pin; the rest is everything else a result
// flows through on its way to bytes on disk, including the CLI mains
// (whose few deliberate wall-clock reads — optional -timing output,
// the benchmark ledger — carry //detlint:allow wallclock hatches).
var DefaultDeterministic = []string{
	"internal/sim",
	"internal/netsim",
	"internal/mpi",
	"internal/pevpm",
	"internal/faults",
	"internal/metrics",
	"internal/experiments",
	"internal/stats",

	"internal/cluster",
	"internal/mpibench",
	"internal/mpilint",
	"internal/trace",
	"internal/vclock",
	"internal/workloads",
	"cmd",
}

// Config controls a suite run.
type Config struct {
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// DeterministicPkgs lists module-relative package paths (each entry
	// covers its subpackages) subject to the deterministic-package
	// analyzers. Nil means DefaultDeterministic.
	DeterministicPkgs []string
	// ForceDeterministic treats every analyzed package as
	// deterministic, regardless of path. Used by the fixture harness
	// and by cmd/detlint -det-all.
	ForceDeterministic bool
}

func (c Config) analyzers() []*Analyzer {
	if c.Analyzers == nil {
		return All()
	}
	return c.Analyzers
}

// deterministic reports whether the module-relative package path rel is
// subject to the determinism analyzers.
func (c Config) deterministic(rel string) bool {
	if c.ForceDeterministic {
		return true
	}
	set := c.DeterministicPkgs
	if set == nil {
		set = DefaultDeterministic
	}
	for _, d := range set {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// Pass carries one typed package through the analyzers, mirroring
// analysis.Pass.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package import path; Rel is the module-relative form
	// ("" for the module root package).
	Path string
	Rel  string
	// Deterministic reports whether the determinism analyzers apply.
	Deterministic bool

	tree       *tree
	analyzer   string
	directives *directiveSet
	findings   *[]Finding
}

// Reportf records a finding at pos unless a matching //detlint:allow
// directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, sev Severity, rule, format string, args ...any) {
	p.report(pos, sev, rule, nil, format, args...)
}

// ReportFix is Reportf with an attached suggested fix.
func (p *Pass) ReportFix(pos token.Pos, sev Severity, rule string, fix *Fix, format string, args ...any) {
	p.report(pos, sev, rule, fix, format, args...)
}

func (p *Pass) report(pos token.Pos, sev Severity, rule string, fix *Fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.allowed(p.analyzer, position.Filename, position.Line) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Rule:     rule,
		Severity: sev,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Position resolves a token.Pos against the pass fileset.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// RunPackages runs the configured analyzers over the loaded packages
// and returns all findings sorted by position. Malformed or unused
// //detlint directives are themselves findings (the escape hatches are
// part of the contract: every suppression must carry a justification
// and must suppress something).
func RunPackages(pkgs []*Package, cfg Config) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		ds := collectDirectives(pkg.Fset, pkg.Files)
		findings = append(findings, ds.malformed...)
		pass := &Pass{
			Fset:          pkg.Fset,
			Files:         pkg.Files,
			Pkg:           pkg.Types,
			Info:          pkg.Info,
			Path:          pkg.Path,
			Rel:           pkg.Rel,
			Deterministic: cfg.deterministic(pkg.Rel),
			tree:          pkg.tree,
			directives:    ds,
			findings:      &findings,
		}
		ran := make(map[string]bool)
		for _, a := range cfg.analyzers() {
			if a.DeterministicOnly && !pass.Deterministic {
				continue
			}
			pass.analyzer = a.Name
			a.Run(pass)
			ran[a.Name] = true
		}
		findings = append(findings, ds.unused(ran)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}
