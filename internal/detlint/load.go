package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and typechecked Go package. File
// positions are module-relative so findings and golden JSON output are
// stable regardless of where the checkout lives.
type Package struct {
	Path  string // import path ("repro/internal/sim")
	Rel   string // module-relative dir ("internal/sim", "" for the root)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	tree *tree // the packages this one was loaded with
}

// LoadPackages parses and typechecks the non-test Go files of every
// package matched by the patterns, rooted at the module directory
// (which must contain go.mod). Patterns follow the go tool's shape:
// "./..." walks everything, "./internal/..." walks a subtree, and a
// plain relative directory names one package. "..." expansion skips
// testdata and hidden directories, but a pattern may name a testdata
// directory explicitly (the fixture harness and CLI tests rely on
// that). Type errors in the target package fail the load: detlint
// reasons about types, so an untypeable package cannot be linted.
func LoadPackages(root string, patterns []string) ([]*Package, error) {
	t, err := newTree(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, rel := range dirs {
		pkg, err := t.load(rel)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("detlint: no Go packages matched %v", patterns)
	}
	return pkgs, nil
}

// A tree is every Go package under a module root: the root module's and
// those of modules nested below it (perfbench/ has its own go.mod and
// imports the root module's internal/ packages). It typechecks each
// package once and serves it to the others as an import, so an object
// has one identity across the tree; only packages from outside the
// tree (the standard library) come from the source importer.
type tree struct {
	root    string
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string   // import path -> module-relative dir, for the "./..." walk
	loaded  map[string]*Package // by module-relative dir
	loading map[string]bool
	refs    *references // built on first use by the unused analyzer
}

func newTree(root string) (*tree, error) {
	if _, err := modulePath(root); err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	t := &tree{
		root:    root,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		dirs:    make(map[string]string),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
	rels, err := expandPatterns(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	for _, rel := range rels {
		importPath, err := t.importPath(rel)
		if err != nil {
			return nil, err
		}
		t.dirs[importPath] = rel
	}
	return t, nil
}

// importPath is the import path of the package in module-relative
// directory rel: the module path of the nearest go.mod at or above it,
// joined with the directory's path below that go.mod.
func (t *tree) importPath(rel string) (string, error) {
	dir := rel
	for {
		modPath, err := modulePath(filepath.Join(t.root, filepath.FromSlash(dir)))
		if err == nil {
			return path.Join(modPath, strings.TrimPrefix(strings.TrimPrefix(rel, dir), "/")), nil
		}
		if dir == "" {
			return "", err
		}
		if dir = path.Dir(dir); dir == "." {
			dir = ""
		}
	}
}

// Import makes the tree a types.Importer for the packages it loads.
func (t *tree) Import(importPath string) (*types.Package, error) {
	rel, ok := t.dirs[importPath]
	if !ok {
		return t.std.Import(importPath)
	}
	pkg, err := t.load(rel)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// all loads every package of the "./..." walk, in directory order.
func (t *tree) all() ([]*Package, error) {
	rels := make([]string, 0, len(t.dirs))
	for _, rel := range t.dirs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	pkgs := make([]*Package, 0, len(rels))
	for _, rel := range rels {
		pkg, err := t.load(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// load parses and typechecks the package in module-relative directory
// rel once; it returns nil for a directory without non-test Go files.
func (t *tree) load(rel string) (*Package, error) {
	if pkg, ok := t.loaded[rel]; ok {
		return pkg, nil
	}
	if t.loading[rel] {
		return nil, fmt.Errorf("detlint: import cycle through %s", rel)
	}
	t.loading[rel] = true
	defer delete(t.loading, rel)
	dir := filepath.Join(t.root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("detlint: %v", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		label := name
		if rel != "" {
			label = path.Join(rel, name)
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("detlint: %v", err)
		}
		f, err := parser.ParseFile(t.fset, label, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("detlint: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.loaded[rel] = nil
		return nil, nil
	}
	importPath, err := t.importPath(rel)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: t}
	tpkg, err := conf.Check(importPath, t.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("detlint: typecheck %s: %v", importPath, err)
	}
	pkg := &Package{Path: importPath, Rel: rel, Fset: t.fset, Files: files, Types: tpkg, Info: info, tree: t}
	t.loaded[rel] = pkg
	return pkg, nil
}

// expandPatterns resolves package patterns to sorted module-relative
// directories containing at least one non-test Go file.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		if pat == "..." || pat == "" {
			pat = "..."
		}
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			base = strings.TrimSuffix(base, "/")
			start := filepath.Join(root, filepath.FromSlash(base))
			err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					rel, err := filepath.Rel(root, p)
					if err != nil {
						return err
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("detlint: %v", err)
			}
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(pat))
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("detlint: no such package directory: %s", pat)
		}
		add(pat)
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("detlint: %s is not a module root: %v", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("detlint: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("detlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
