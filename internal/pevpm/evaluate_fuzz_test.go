package pevpm_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpilint"
	"repro/internal/pevpm"
	"repro/internal/trace"
)

// The operand tables fuzzProgram indexes with one byte each. Every table
// holds values that work and values that fail: out-of-range peers,
// division by zero, negative (a Loop count of -0.5 among them), NaN,
// infinite and out-of-int-range values (the params p_nan, p_inf and
// p_big), and an undefined variable. The Loop count 1.5-procnum only
// truncates on processes 0 and 1 but is negative from process 2 on. A Collective's root is absent ("")
// or one of fuzzRoots.
var (
	fuzzTimes  = []string{"1e-4", "1e-4*(procnum+1)", "0", "-1", "p_inf", "undefined_cost"}
	fuzzSizes  = []string{"1024", "65536", "0", "numprocs*100", "-1", "1/0", "p_big", "p_nan"}
	fuzzPeers  = []string{"procnum", "(procnum+1)%numprocs", "(procnum+numprocs-1)%numprocs", "0", "1", "numprocs-1", "numprocs", "procnum-1", "1/0", "p_nan"}
	fuzzCounts = []string{"0", "1", "2", "3", "-1", "p_nan", "-0.5", "1.5-procnum"}
	fuzzConds  = []string{"procnum == 0", "procnum != 0", "procnum % 2 == 0", "procnum < numprocs/2", "1", "0", "1/0"}
	fuzzColls  = []string{"MPI_Bcast", "MPI_Alltoall"}
	fuzzRoots  = []string{"", "0", "1/0", "numprocs-1"}
	fuzzKinds  = []pevpm.MsgKind{pevpm.MsgSend, pevpm.MsgIsend, pevpm.MsgRecv}
)

// The directive kinds fuzzProgram decodes, in kind-byte order.
const (
	fzSerial = iota
	fzMsg
	fzLoop
	fzRunon
	fzColl
	fzReuse
	fzKinds
)

// progDecoder reads a program from fuzz bytes; past the end every byte
// reads as 0.
type progDecoder struct {
	data []byte
	left int // directives still to decode
	// done holds every directive decoded so far, for fzReuse to place
	// again; a directive joins once its body is decoded, so none
	// contains itself.
	done []pevpm.Node
	// line is the position the next decoded directive takes, so each
	// directive has its own.
	line int
}

func (d *progDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *progDecoder) expr(table []string) pevpm.Expr {
	return pevpm.MustExpr(table[d.next()%len(table)])
}

// block decodes a directive count (mod 4) and that many directives.
func (d *progDecoder) block(depth int) pevpm.Block {
	var b pevpm.Block
	for n := d.next() % 4; n > 0 && d.left > 0; n-- {
		d.left--
		n := d.directive(depth)
		d.done = append(d.done, n)
		b = append(b, n)
	}
	return b
}

// directive decodes a kind byte and the kind's operands: Serial (time),
// Msg (kind, size, from, to), Loop (count, body), Runon (1 or 2
// conditions, each with its body), Coll (operation, size, root), or the
// reuse of a directive decoded earlier (index), which then sits in two
// places of the tree and shares its hot-spot slot. Loop and Runon nest
// at most 3 deep; deeper, they decode as Serial, and so does a reuse
// with nothing to reuse. Each new directive is at its own line, which
// Evaluate never reads.
func (d *progDecoder) directive(depth int) pevpm.Node {
	kind := d.next() % fzKinds
	if (kind == fzLoop || kind == fzRunon) && depth >= 3 || kind == fzReuse && len(d.done) == 0 {
		kind = fzSerial
	}
	d.line++
	at := pevpm.Pos{Line: d.line}
	switch kind {
	case fzReuse:
		return d.done[d.next()%len(d.done)]
	case fzMsg:
		return &pevpm.Msg{Kind: fuzzKinds[d.next()%len(fuzzKinds)],
			Size: d.expr(fuzzSizes), From: d.expr(fuzzPeers), To: d.expr(fuzzPeers), At: at}
	case fzLoop:
		return &pevpm.Loop{Count: d.expr(fuzzCounts), At: at, Body: d.block(depth + 1)}
	case fzRunon:
		r := &pevpm.Runon{At: at}
		for n := 1 + d.next()%2; n > 0; n-- {
			r.Conds = append(r.Conds, d.expr(fuzzConds))
			r.Bodies = append(r.Bodies, d.block(depth+1))
		}
		return r
	case fzColl:
		c := &pevpm.Coll{Op: fuzzColls[d.next()%len(fuzzColls)], Size: d.expr(fuzzSizes), At: at}
		if root := fuzzRoots[d.next()%len(fuzzRoots)]; root != "" {
			c.Root = pevpm.MustExpr(root)
		}
		return c
	}
	return &pevpm.Serial{Time: d.expr(fuzzTimes), At: at}
}

// fuzzProgram decodes a bounded random program and the options to
// evaluate it with, the generator FuzzEvaluate draws from. Byte 0 is the
// process count less one (mod 8). In byte 1, bit 0 selects the database
// with collective measurements and bit 1 puts two processes on each
// node. The rest is a block of at most 12 directives.
func fuzzProgram(data []byte, db, coll pevpm.PerfDB) (*pevpm.Program, pevpm.Options) {
	d := &progDecoder{data: data, left: 12}
	opts := pevpm.Options{Procs: 1 + d.next()%8, DB: db, Seed: 7}
	flags := d.next()
	if flags&1 != 0 {
		opts.DB = coll
	}
	if flags&2 != 0 {
		opts.NodeOf = func(proc int) int { return proc / 2 }
	}
	prog := pevpm.NewProgram()
	prog.Params["p_nan"], prog.Params["p_inf"], prog.Params["p_big"] = math.NaN(), math.Inf(1), 1e300
	prog.Body = d.block(0)
	return prog, opts
}

// fuzzSeeds are programs for FuzzEvaluate's corpus, each with the
// outcome TestFuzzEvaluateSeeds expects: "" for a report, else a piece
// of the error text. The byte comments name the directives: kind byte,
// then operands as table indexes.
var fuzzSeeds = []struct {
	name string
	want string
	data []byte
}{
	{"ring", "", []byte{3, 0, 1,
		fzLoop, 3, 2, // Loop 3 {
		fzMsg, 1, 0, 0, 1, // Isend 1024 procnum -> (procnum+1)%numprocs
		fzMsg, 2, 0, 2, 0}}, // Recv 1024 (procnum+numprocs-1)%numprocs -> procnum }
	{"reused loop", "", []byte{3, 0, 2,
		fzLoop, 2, 2, // Loop 2 {
		fzMsg, 1, 0, 0, 1, // Isend 1024 procnum -> (procnum+1)%numprocs
		fzMsg, 2, 0, 2, 0, // Recv 1024 (procnum+numprocs-1)%numprocs -> procnum }
		fzReuse, 2}}, // the same Loop again
	{"rendezvous", "", []byte{3, 2, 2,
		fzMsg, 0, 1, 0, 1, // Send 65536 procnum -> (procnum+1)%numprocs
		fzMsg, 2, 1, 2, 0}}, // Recv 65536 (procnum+numprocs-1)%numprocs -> procnum
	{"deadlock", "model deadlock", []byte{2, 0, 1,
		fzMsg, 2, 0, 2, 0}}, // Recv 1024 (procnum+numprocs-1)%numprocs -> procnum
	{"lazy failure", "undefined variable", []byte{1, 0, 1,
		fzRunon, 1, // Runon procnum == 0 { Send 1024 0 -> 1; Recv 1024 1 -> 0 } & procnum != 0 {
		0, 2, fzMsg, 0, 0, 3, 4, fzMsg, 2, 0, 4, 3,
		1, 2, fzMsg, 2, 0, 3, 4, fzSerial, 5}}, // Recv 1024 0 -> 1; Serial undefined_cost }
	{"collective", "", []byte{3, 1, 1,
		fzLoop, 2, 2, // Loop 2 {
		fzSerial, 1, // Serial 1e-4*(procnum+1)
		fzColl, 0, 0}}, // Collective MPI_Bcast 1024 }
	{"collective without measurements", "no collective measurements", []byte{3, 0, 1,
		fzColl, 0, 0}},
	{"collective not measured", "not present in the database", []byte{3, 1, 1,
		fzColl, 1, 0}},
	{"collective mismatch", "different collectives", []byte{2, 1, 1,
		fzRunon, 1, // Runon procnum == 0 { Collective MPI_Bcast 1024 } & procnum != 0 { Collective MPI_Bcast 65536 }
		0, 1, fzColl, 0, 0, 0,
		1, 1, fzColl, 0, 1}},
	{"negative loop count truncating to zero passes", "Loop count -0.5 is negative", []byte{1, 0, 1,
		fzLoop, 6, 1, // Loop -0.5 {
		fzSerial, 0}}, // Serial 1e-4 }
	{"collective root failing", "division by zero in (1 / 0)", []byte{3, 1, 1,
		fzColl, 0, 0, 2}}, // Collective MPI_Bcast 1024 root 1/0
	{"loop count warning on some processes, failing on others", "Loop count -0.5 is negative", []byte{2, 0, 1,
		fzLoop, 7, 1, // Loop 1.5-procnum {
		fzSerial, 0}}, // Serial 1e-4 }
}

// TestFuzzEvaluateSeeds checks that FuzzEvaluate's seeds decode into the
// programs their comments describe, so the corpus covers a clean run, a
// reused directive, a rendezvous, a deadlock, a lazy failure,
// collectives, a negative Loop count that truncates to zero passes, a
// Collective root that fails to evaluate and a Loop count that warns on
// some processes and fails on the others.
func TestFuzzEvaluateSeeds(t *testing.T) {
	db, coll := goldenDBs(t)
	for _, s := range fuzzSeeds {
		prog, opts := fuzzProgram(s.data, db, coll)
		_, err := pevpm.Evaluate(prog, opts)
		switch {
		case s.want == "" && err != nil:
			t.Errorf("%s: %v", s.name, err)
		case s.want != "" && (err == nil || !strings.Contains(err.Error(), s.want)):
			t.Errorf("%s: error %v, want one containing %q", s.name, err, s.want)
		}
	}
}

// FuzzEvaluate holds Evaluate to its contract on random programs:
// failing expressions, wrong roles, deadlocks, rendezvous, collectives
// with and without measurements, collective mismatches and directives
// placed twice. Evaluate
// never panics. Evaluating again with the same options gives the same
// report bit for bit (metrics included) or the same error text, and so
// do a fresh Program with the same Params and Body (no cached plan), a
// traced evaluation, and an evaluation at n processes after one at n+1.
// mpilint agrees with the evaluator (lintAgrees).
func FuzzEvaluate(f *testing.F) {
	db, coll := goldenDBs(f)
	for _, s := range fuzzSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, opts := fuzzProgram(data, db, coll)
		rep, err := pevpm.Evaluate(prog, opts)
		first := reportBits(rep, err)
		lintAgrees(t, prog, opts.Procs, err)
		if again := reportBits(pevpm.Evaluate(prog, opts)); again != first {
			t.Fatalf("evaluated twice:\n%s\nthen:\n%s", first, again)
		}
		if cold := reportBits(pevpm.Evaluate(&pevpm.Program{Params: prog.Params, Body: prog.Body}, opts)); cold != first {
			t.Fatalf("warm evaluation:\n%s\nfresh program:\n%s", first, cold)
		}
		traced := opts
		traced.Trace = trace.NewLog(0)
		if got := reportBits(pevpm.Evaluate(prog, traced)); got != first {
			t.Fatalf("untraced:\n%s\ntraced:\n%s", first, got)
		}
		more := opts
		more.Procs++
		pevpm.Evaluate(prog, more)
		if got := reportBits(pevpm.Evaluate(prog, opts)); got != first {
			t.Fatalf("at %d processes:\n%s\nafter one at %d:\n%s", opts.Procs, first, more.Procs, got)
		}
	})
}

// perDirective holds the rules of the checks resolution makes on a
// directive's values that fail it: an error under one is an error
// Evaluate raises when a process reaches the directive.
var perDirective = map[string]bool{
	pevpm.RuleEvalError: true, pevpm.RuleBadTime: true, pevpm.RuleBadLoop: true,
	pevpm.RuleBadSize: true, pevpm.RuleRankBounds: true, pevpm.RuleWrongRole: true,
}

// lintAgrees holds mpilint.Analyze at prog's process count n to
// evalErr, what Evaluate returned. Analyze never panics and returns the
// same findings twice. When Evaluate fails at a directive check, which
// asks the database nothing, Analyze reports an error at that directive,
// or the unbound-param error that stops its analysis. When Analyze
// reports an error under a per-directive rule, Evaluate fails.
func lintAgrees(t *testing.T, prog *pevpm.Program, n int, evalErr error) {
	t.Helper()
	fs, err := mpilint.Analyze(prog, mpilint.Options{Procs: n})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if again, _ := mpilint.Analyze(prog, mpilint.Options{Procs: n}); !reflect.DeepEqual(again, fs) {
		t.Fatalf("analyzed twice:\n%v\nthen:\n%v", fs, again)
	}
	var check *pevpm.Check
	failed := errors.As(evalErr, &check)
	for _, f := range fs {
		if f.Severity != mpilint.SeverityError {
			continue
		}
		if failed && (f.Rule == mpilint.RuleUnboundParam || f.Pos == check.Node.Pos().String()) {
			failed = false
		}
		if evalErr == nil && perDirective[f.Rule] {
			t.Fatalf("Analyze reports %s, but Evaluate succeeds", f)
		}
	}
	if failed {
		t.Fatalf("Evaluate fails at line %s (%v), but Analyze reports no error there:\n%v", check.Node.Pos(), check, fs)
	}
}
