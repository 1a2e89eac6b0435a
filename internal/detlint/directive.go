package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //detlint: directive grammar (see docs/DETLINT.md):
//
//	//detlint:hotpath [-- reason]
//	//detlint:ordered -- <justification>
//	//detlint:allow <analyzer> -- <justification>
//
// hotpath opts the annotated function into the zero-alloc checks.
// ordered and allow are escape hatches and MUST carry a justification
// after " -- "; a hatch without a reason, with an unknown analyzer
// name, or that suppresses nothing is itself a finding. An escape
// hatch applies to findings on its own line (trailing comment) or on
// the line directly below (standalone comment line).

type directiveKind int

const (
	directiveHotpath directiveKind = iota
	directiveOrdered
	directiveAllow
)

type directive struct {
	kind     directiveKind
	analyzer string // for allow: which analyzer family it silences
	reason   string
	file     string
	line     int
	used     bool
}

type directiveSet struct {
	// byFile maps filename -> line -> directives declared there.
	byFile    map[string]map[int][]*directive
	all       []*directive
	malformed []Finding
}

// knownAnalyzers are the families //detlint:allow may name.
var knownAnalyzers = map[string]bool{
	"wallclock": true,
	"maprange":  true,
	"hotpath":   true,
	"rng":       true,
	"unused":    true,
}

// collectDirectives parses every //detlint: comment in the package.
// Malformed directives become findings immediately; well-formed ones
// are indexed by position for the analyzers and the suppression check.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byFile: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//detlint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ds.add(pos, text)
			}
		}
	}
	return ds
}

func (ds *directiveSet) add(pos token.Position, text string) {
	bad := func(format string, args ...any) {
		ds.malformed = append(ds.malformed, Finding{
			Analyzer: "directive",
			Rule:     "malformed-directive",
			Severity: SeverityError,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	head, reason, hasReason := strings.Cut(text, " -- ")
	reason = strings.TrimSpace(reason)
	fields := strings.Fields(head)
	if len(fields) == 0 {
		bad("empty //detlint: directive")
		return
	}
	d := &directive{file: pos.Filename, line: pos.Line, reason: reason}
	switch fields[0] {
	case "hotpath":
		if len(fields) != 1 {
			bad("//detlint:hotpath takes no arguments (got %q)", head)
			return
		}
		d.kind = directiveHotpath
	case "ordered":
		if len(fields) != 1 {
			bad("//detlint:ordered takes no arguments before ' -- ' (got %q)", head)
			return
		}
		if !hasReason || reason == "" {
			bad("//detlint:ordered requires a justification: //detlint:ordered -- <why order cannot matter>")
			return
		}
		d.kind = directiveOrdered
	case "allow":
		if len(fields) != 2 {
			bad("//detlint:allow requires exactly one analyzer name: //detlint:allow <analyzer> -- <why>")
			return
		}
		if !knownAnalyzers[fields[1]] {
			bad("//detlint:allow names unknown analyzer %q (known: wallclock, maprange, hotpath, rng, unused)", fields[1])
			return
		}
		if !hasReason || reason == "" {
			bad("//detlint:allow requires a justification: //detlint:allow %s -- <why>", fields[1])
			return
		}
		d.kind = directiveAllow
		d.analyzer = fields[1]
	default:
		bad("unknown //detlint: directive %q (known: hotpath, ordered, allow)", fields[0])
		return
	}
	if ds.byFile[pos.Filename] == nil {
		ds.byFile[pos.Filename] = make(map[int][]*directive)
	}
	ds.byFile[pos.Filename][pos.Line] = append(ds.byFile[pos.Filename][pos.Line], d)
	ds.all = append(ds.all, d)
}

// at returns directives of the given kind that cover file:line — i.e.
// declared on that line or on the line directly above it.
func (ds *directiveSet) at(kind directiveKind, file string, line int) []*directive {
	lines := ds.byFile[file]
	if lines == nil {
		return nil
	}
	var out []*directive
	for _, l := range [2]int{line, line - 1} {
		for _, d := range lines[l] {
			if d.kind == kind {
				out = append(out, d)
			}
		}
	}
	return out
}

// allowed reports whether an //detlint:allow hatch for the analyzer
// covers file:line, marking it used.
func (ds *directiveSet) allowed(analyzer, file string, line int) bool {
	ok := false
	for _, d := range ds.at(directiveAllow, file, line) {
		if d.analyzer == analyzer {
			d.used = true
			ok = true
		}
	}
	return ok
}

// ordered reports whether an //detlint:ordered hatch covers file:line,
// marking it used.
func (ds *directiveSet) ordered(file string, line int) bool {
	hatches := ds.at(directiveOrdered, file, line)
	for _, d := range hatches {
		d.used = true
	}
	return len(hatches) > 0
}

// hotpathBetween reports whether a //detlint:hotpath directive sits in
// the line range [from, to] of file (a function's doc comment through
// its declaration line), marking it used.
func (ds *directiveSet) hotpathBetween(file string, from, to int) bool {
	lines := ds.byFile[file]
	if lines == nil {
		return false
	}
	ok := false
	for l := from; l <= to; l++ {
		for _, d := range lines[l] {
			if d.kind == directiveHotpath {
				d.used = true
				ok = true
			}
		}
	}
	return ok
}

// unused reports every directive whose owning analyzer ran but that
// never matched anything: a suppression that suppresses nothing is
// stale and must be removed (or was placed on the wrong line).
func (ds *directiveSet) unused(ran map[string]bool) []Finding {
	var out []Finding
	for _, d := range ds.all {
		if d.used {
			continue
		}
		owner := ""
		switch d.kind {
		case directiveHotpath:
			owner = "hotpath"
		case directiveOrdered:
			owner = "maprange"
		case directiveAllow:
			owner = d.analyzer
		}
		if !ran[owner] {
			continue
		}
		out = append(out, Finding{
			Analyzer: "directive",
			Rule:     "unused-directive",
			Severity: SeverityError,
			File:     d.file,
			Line:     d.line,
			Col:      1,
			Message:  "//detlint directive matches nothing; remove it or move it onto the offending line",
		})
	}
	return out
}
