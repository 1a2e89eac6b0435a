// Package pevpm implements the paper's Performance Evaluating Virtual
// Parallel Machine: a model of a message-passing program built from the
// paper's performance directives (Loop, Runon, Message, Serial), executed
// by a virtual parallel machine that advances every model process in
// sweep phases, keeps in-flight messages on a contention scoreboard, and
// determines their arrival times in match phases by Monte-Carlo sampling
// from probability distributions of communication times — by preference
// the distributions MPIBench measured.
package pevpm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Env supplies values for the free variables of an expression. The
// evaluator always binds procnum and numprocs; programs can add their own
// parameters (the paper keeps these symbolic so a model can be
// re-evaluated under different conditions without rebuilding it).
type Env map[string]float64

// Expr is a symbolic arithmetic/boolean expression over an Env.
// Booleans are represented as 0 and 1.
type Expr interface {
	Eval(env Env) (float64, error)
	String() string
}

type numLit float64

func (n numLit) Eval(Env) (float64, error) { return float64(n), nil }
func (n numLit) String() string            { return strconv.FormatFloat(float64(n), 'g', -1, 64) }

type varRef string

func (v varRef) Eval(env Env) (float64, error) {
	if val, ok := env[string(v)]; ok {
		return val, nil
	}
	return 0, fmt.Errorf("pevpm: undefined variable %q", string(v))
}
func (v varRef) String() string { return string(v) }

type binary struct {
	op   string
	l, r Expr
}

func (b binary) Eval(env Env) (float64, error) {
	l, err := b.l.Eval(env)
	if err != nil {
		return 0, err
	}
	// Short-circuit boolean operators.
	switch b.op {
	case "&&":
		if l == 0 {
			return 0, nil
		}
		r, err := b.r.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	case "||":
		if l != 0 {
			return 1, nil
		}
		r, err := b.r.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	}
	r, err := b.r.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("pevpm: division by zero in %s", b.String())
		}
		return l / r, nil
	case "%":
		if r == 0 {
			return 0, fmt.Errorf("pevpm: modulo by zero in %s", b.String())
		}
		return math.Mod(l, r), nil
	case "==":
		return boolVal(l == r), nil
	case "!=":
		return boolVal(l != r), nil
	case "<":
		return boolVal(l < r), nil
	case "<=":
		return boolVal(l <= r), nil
	case ">":
		return boolVal(l > r), nil
	case ">=":
		return boolVal(l >= r), nil
	}
	return 0, fmt.Errorf("pevpm: unknown operator %q", b.op)
}

func (b binary) String() string { return string(appendExpr(nil, b)) }

type unary struct {
	op string
	x  Expr
}

func (u unary) Eval(env Env) (float64, error) {
	v, err := u.x.Eval(env)
	if err != nil {
		return 0, err
	}
	switch u.op {
	case "-":
		return -v, nil
	case "!":
		return boolVal(v == 0), nil
	}
	return 0, fmt.Errorf("pevpm: unknown unary operator %q", u.op)
}

func (u unary) String() string { return string(appendExpr(nil, u)) }

// appendExpr appends e's String form to dst, building a compound
// expression's text in one buffer rather than one string per node.
func appendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case numLit:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 64)
	case varRef:
		return append(dst, x...)
	case binary:
		dst = append(dst, '(')
		dst = appendExpr(dst, x.l)
		dst = append(dst, ' ')
		dst = append(dst, x.op...)
		dst = append(dst, ' ')
		dst = appendExpr(dst, x.r)
		return append(dst, ')')
	case unary:
		return appendExpr(append(dst, x.op...), x.x)
	}
	return append(dst, e.String()...)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sizeofTable implements the sizeof(...) builtin the paper's Figure 5
// annotations use (size = xsize*sizeof(float)).
var sizeofTable = map[string]float64{
	"char": 1, "short": 2, "int": 4, "long": 8,
	"float": 4, "double": 8,
}

// ParseExpr parses an arithmetic/boolean expression in the syntax the
// paper's directives use: numbers, identifiers, sizeof(type), the
// operators + - * / %, comparisons, ! && ||, and parentheses.
func ParseExpr(src string) (Expr, error) {
	p := &exprParser{src: src}
	p.next()
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("pevpm: unexpected %q after expression in %q", p.lit, src)
	}
	return e, nil
}

// MustExpr is ParseExpr for literals in tests and builders; it panics on
// a syntax error.
func MustExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Vars returns the free variables of e in first-use order, without
// duplicates. Static analysis uses it to find references to parameters
// the model never binds.
func Vars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	walkVars(e, func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	})
	return out
}

func walkVars(e Expr, emit func(string)) {
	switch x := e.(type) {
	case varRef:
		emit(string(x))
	case binary:
		walkVars(x.l, emit)
		walkVars(x.r, emit)
	case unary:
		walkVars(x.x, emit)
	}
}

// Num returns a numeric literal expression.
func Num(v float64) Expr { return numLit(v) }

// Var returns a variable reference expression.
func Var(name string) Expr { return varRef(name) }

type token int

const (
	tokEOF token = iota
	tokNum
	tokIdent
	tokOp
	tokLParen
	tokRParen
	tokBad
)

type exprParser struct {
	src string
	pos int
	tok token
	lit string
}

func (p *exprParser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
				p.pos++
				continue
			}
			// Exponent sign.
			if (c == '+' || c == '-') && p.pos > start &&
				(p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E') {
				p.pos++
				continue
			}
			break
		}
		p.tok, p.lit = tokNum, p.src[start:p.pos]
	case isIdentStart(c):
		start := p.pos
		for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
			p.pos++
		}
		p.tok, p.lit = tokIdent, p.src[start:p.pos]
	case c == '(':
		p.pos++
		p.tok, p.lit = tokLParen, "("
	case c == ')':
		p.pos++
		p.tok, p.lit = tokRParen, ")"
	default:
		// Multi-character operators first.
		for _, op := range []string{"==", "!=", "<=", ">=", "&&", "||"} {
			if strings.HasPrefix(p.src[p.pos:], op) {
				p.pos += 2
				p.tok, p.lit = tokOp, op
				return
			}
		}
		if strings.ContainsRune("+-*/%<>!", rune(c)) {
			p.pos++
			p.tok, p.lit = tokOp, string(c)
			return
		}
		p.tok, p.lit = tokBad, string(c)
		p.pos = len(p.src) // force error upstream
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.lit == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binary{"||", l, r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.lit == "&&" {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binary{"&&", l, r}
	}
	return l, nil
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp {
		switch p.lit {
		case "==", "!=", "<", "<=", ">", ">=":
			op := p.lit
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			l = binary{op, l, r}
			continue
		}
		break
	}
	return l, nil
}

func (p *exprParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "+" || p.lit == "-") {
		op := p.lit
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = binary{op, l, r}
	}
	return l, nil
}

func (p *exprParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "*" || p.lit == "/" || p.lit == "%") {
		op := p.lit
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binary{op, l, r}
	}
	return l, nil
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.tok == tokOp && (p.lit == "-" || p.lit == "!") {
		op := p.lit
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{op, x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	switch p.tok {
	case tokNum:
		v, err := strconv.ParseFloat(p.lit, 64)
		if err != nil {
			return nil, fmt.Errorf("pevpm: bad number %q: %v", p.lit, err)
		}
		p.next()
		return numLit(v), nil
	case tokIdent:
		name := p.lit
		p.next()
		if name == "sizeof" {
			if p.tok != tokLParen {
				return nil, fmt.Errorf("pevpm: sizeof needs a parenthesised type")
			}
			p.next()
			if p.tok != tokIdent {
				return nil, fmt.Errorf("pevpm: sizeof of non-type %q", p.lit)
			}
			size, ok := sizeofTable[p.lit]
			if !ok {
				return nil, fmt.Errorf("pevpm: unknown type %q in sizeof", p.lit)
			}
			p.next()
			if p.tok != tokRParen {
				return nil, fmt.Errorf("pevpm: missing ) after sizeof")
			}
			p.next()
			return numLit(size), nil
		}
		return varRef(name), nil
	case tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("pevpm: missing closing parenthesis")
		}
		p.next()
		return e, nil
	}
	return nil, fmt.Errorf("pevpm: unexpected token %q", p.lit)
}
