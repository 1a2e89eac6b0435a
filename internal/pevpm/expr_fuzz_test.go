package pevpm_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pevpm"
	"repro/internal/workloads"
)

// FuzzEval holds the expression language to its contract on any input:
// ParseExpr never panics; an accepted expression evaluates without
// panicking, to the same bits or the same error text twice; and its
// printed form parses back to an expression that evaluates to the same
// bits or fails the same way, so String keeps every operator's
// precedence. The corpus starts from every expression in the shipped
// models (the mpilint fixtures and the Jacobi example) and in the
// bundled workloads' models, which the workloads build with MustExpr.
func FuzzEval(f *testing.F) {
	files, err := filepath.Glob("../mpilint/testdata/*.pvm")
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, "../../examples/jacobi/jacobi.pvm")
	var progs []*pevpm.Program
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		if prog, err := pevpm.Parse(string(src)); err == nil {
			progs = append(progs, prog)
		}
	}
	jacobi, err := workloads.DefaultJacobi().Model()
	if err != nil {
		f.Fatal(err)
	}
	progs = append(progs, jacobi, workloads.DefaultSumma().Model(),
		workloads.DefaultFFT().Model(8), workloads.DefaultTaskFarm().Model(4))
	seen := make(map[string]bool)
	for _, prog := range progs {
		for _, e := range exprsOf(prog) {
			if src := e.String(); !seen[src] {
				seen[src] = true
				f.Add(src, 1, 4)
			}
		}
	}
	if len(seen) < 20 {
		f.Fatalf("found %d seed expressions", len(seen))
	}
	f.Fuzz(func(t *testing.T, src string, procnum, numprocs int) {
		e, err := pevpm.ParseExpr(src)
		if err != nil {
			return
		}
		env := pevpm.Env{"procnum": float64(procnum), "numprocs": float64(numprocs)}
		v, err := e.Eval(env)
		again, errAgain := e.Eval(env)
		if !sameResult(v, err, again, errAgain) {
			t.Fatalf("%q evaluated twice: %v (%v), then %v (%v)", src, v, err, again, errAgain)
		}
		printed := e.String()
		back, perr := pevpm.ParseExpr(printed)
		if perr != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, perr)
		}
		bv, berr := back.Eval(env)
		if !sameResult(v, err, bv, berr) {
			t.Fatalf("%q = %v (%v), but its printed form %q = %v (%v)", src, v, err, printed, bv, berr)
		}
	})
}

// sameResult reports whether two evaluations agree bit for bit, or fail
// with the same error text.
func sameResult(a float64, aerr error, b float64, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// exprsOf lists every expression a program's directives carry.
func exprsOf(prog *pevpm.Program) []pevpm.Expr {
	var out []pevpm.Expr
	add := func(es ...pevpm.Expr) {
		for _, e := range es {
			if e != nil {
				out = append(out, e)
			}
		}
	}
	pevpm.Walk(prog.Body, func(n pevpm.Node) bool {
		switch d := n.(type) {
		case *pevpm.Loop:
			add(d.Count)
		case *pevpm.Runon:
			add(d.Conds...)
		case *pevpm.Msg:
			add(d.Size, d.From, d.To)
		case *pevpm.Coll:
			add(d.Size, d.Root)
		case *pevpm.Serial:
			add(d.Time)
		}
		return true
	})
	return out
}
