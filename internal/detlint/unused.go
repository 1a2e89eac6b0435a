package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnusedAnalyzer reports exported identifiers of internal/ packages that
// no non-test code references. Nothing outside the module can import
// internal/, so such an identifier is either dead or kept alive by
// tests alone. One reason justifies keeping one, stated in a
// //detlint:allow unused hatch: a test uses it as the oracle or hook for
// behaviour that stays.
//
// It checks exported package-level funcs, types, vars and consts, and
// the exported methods of types declared in the package. References are
// gathered from every non-test file of the tree the packages were
// loaded from, nested modules included, whichever packages the command
// line names. A method counts as used when its type implements an
// interface with a method of that name declared in the tree, in a
// package the tree imports, or in the universe (error): the method can
// then be called through the interface.
var UnusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc:  "report exported identifiers in internal/ that only tests reference",
	Run:  runUnused,
}

// unusedScope reports whether the module-relative package directory rel
// is subject to the unused analyzer: internal/ packages of the tree
// walk, not fixtures under a testdata directory.
func unusedScope(rel string) bool {
	if rel != "internal" && !strings.HasPrefix(rel, "internal/") {
		return false
	}
	for _, elem := range strings.Split(rel, "/") {
		if elem == "testdata" {
			return false
		}
	}
	return true
}

func runUnused(pass *Pass) {
	if !unusedScope(pass.Rel) {
		return
	}
	refs, err := pass.tree.references()
	if err != nil {
		pass.Reportf(pass.Files[0].Package, SeverityError, "load",
			"cannot gather references from the module: %v", err)
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkUnusedFunc(pass, refs, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						reportUnused(pass, refs, s.Name, "type")
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							reportUnused(pass, refs, name, kind)
						}
					}
				}
			}
		}
	}
}

func checkUnusedFunc(pass *Pass, refs *references, d *ast.FuncDecl) {
	if d.Recv == nil {
		reportUnused(pass, refs, d.Name, "func")
		return
	}
	fn, ok := pass.Info.Defs[d.Name].(*types.Func)
	if !ok || !fn.Exported() || refs.used[fn] {
		return
	}
	named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
	if named == nil || refs.implements(named, fn.Name()) {
		return
	}
	pass.Reportf(d.Name.Pos(), SeverityError, "unused",
		"method %s.%s is not referenced by any non-test code in the module; delete it, or keep it with //detlint:allow unused -- <reason>",
		named.Obj().Name(), fn.Name())
}

func reportUnused(pass *Pass, refs *references, id *ast.Ident, kind string) {
	obj := pass.Info.Defs[id]
	if obj == nil || !obj.Exported() || refs.used[obj] {
		return
	}
	pass.Reportf(id.Pos(), SeverityError, "unused",
		"%s %s is not referenced by any non-test code in the module; delete it, or keep it with //detlint:allow unused -- <reason>",
		kind, id.Name)
}

// references is what the whole tree's non-test code reaches: every
// object some declaration references other than its own, and the
// method-set interfaces a method could be called through.
type references struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface // by method name
}

// references gathers the tree's references once; every package pass of
// the unused analyzer shares the result.
func (t *tree) references() (*references, error) {
	if t.refs != nil {
		return t.refs, nil
	}
	pkgs, err := t.all()
	if err != nil {
		return nil, err
	}
	r := &references{used: make(map[types.Object]bool), ifaces: make(map[string][]*types.Interface)}
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				r.addUses(pkg.Info, decl)
			}
		}
		r.addInterfaces(pkg.Types, seen)
	}
	r.addInterface(types.Universe.Lookup("error").Type())
	t.refs = r
	return r, nil
}

// addUses records what decl references, skipping the objects decl
// declares: a recursive call, a type named in its own fields, or a
// method's receiver does not make them used.
func (r *references) addUses(info *types.Info, decl ast.Decl) {
	var specs []ast.Node
	switch d := decl.(type) {
	case *ast.FuncDecl:
		specs = []ast.Node{d}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			specs = append(specs, s)
		}
	}
	for _, spec := range specs {
		own := owners(info, spec)
		ast.Inspect(spec, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && !own[obj] {
				r.used[obj] = true
			}
			return true
		})
	}
}

// owners returns the objects a top-level declaration node declares; a
// method also owns its receiver's base type.
func owners(info *types.Info, n ast.Node) map[types.Object]bool {
	own := make(map[types.Object]bool)
	switch d := n.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if named := receiverNamed(info.Types[d.Recv.List[0].Type].Type); named != nil {
				own[named.Obj()] = true
			}
		}
	case *ast.TypeSpec:
		own[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, name := range d.Names {
			own[info.Defs[name]] = true
		}
	}
	return own
}

// receiverNamed strips a receiver type down to its named base type.
func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// addInterfaces indexes the method-set interfaces declared at package
// level in pkg and, transitively, in the packages it imports.
func (r *references) addInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		r.addInterface(tn.Type())
	}
	for _, imp := range pkg.Imports() {
		r.addInterfaces(imp, seen)
	}
}

func (r *references) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || !iface.IsMethodSet() {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		r.ifaces[name] = append(r.ifaces[name], iface)
	}
}

// implements reports whether named or its pointer implements an indexed
// interface that has a method called method.
func (r *references) implements(named *types.Named, method string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range r.ifaces[method] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}
