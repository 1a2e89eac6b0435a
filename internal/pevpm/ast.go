package pevpm

import (
	"fmt"
	"strings"
)

// Pos is a source position of a directive: the file the model was read
// from (empty when parsed from a bare string) and the 1-based line and
// column of the directive's head token.
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the position carries any location at all.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return ""
	}
	s := fmt.Sprintf("%d", p.Line)
	if p.Col > 0 {
		s = fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	if p.File != "" {
		return p.File + ":" + s
	}
	return s
}

// Node is one model construct: the paper's performance directives.
type Node interface {
	describe() string
	// Pos returns where the directive appeared in the source, or the
	// zero Pos for programmatically built nodes.
	Pos() Pos
}

// Block is a sequence of directives executed in order.
type Block []Node

// Loop repeats its body Count times (PEVPM "Loop iterations = ...").
type Loop struct {
	Count Expr
	Body  Block
	At    Pos
}

func (l *Loop) describe() string { return "Loop " + l.Count.String() }
func (l *Loop) Pos() Pos         { return l.At }

// Runon guards blocks by process conditions (PEVPM "Runon c1 = ... & c2
// = ..."). Conditions are evaluated in order; the body of the first true
// condition runs — if/else-if semantics, matching the paper's use of c1
// for the even branch and c2 for the odd branch of the Jacobi code.
type Runon struct {
	Conds  []Expr
	Bodies []Block
	At     Pos
}

func (r *Runon) Pos() Pos { return r.At }

func (r *Runon) describe() string {
	parts := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		parts[i] = c.String()
	}
	return "Runon " + strings.Join(parts, " & ")
}

// MsgKind is the operation of a Message directive.
type MsgKind int

// The message kinds the paper's directive language uses.
const (
	MsgSend  MsgKind = iota // MPI_Send: blocking standard send
	MsgRecv                 // MPI_Recv: blocking receive
	MsgIsend                // MPI_Isend: nonblocking send (fire and forget)
)

// ParseMsgKind maps the directive spelling to a MsgKind.
func ParseMsgKind(s string) (MsgKind, error) {
	switch s {
	case "MPI_Send":
		return MsgSend, nil
	case "MPI_Recv":
		return MsgRecv, nil
	case "MPI_Isend":
		return MsgIsend, nil
	}
	return 0, fmt.Errorf("pevpm: unknown message type %q", s)
}

func (k MsgKind) String() string {
	switch k {
	case MsgSend:
		return "MPI_Send"
	case MsgRecv:
		return "MPI_Recv"
	case MsgIsend:
		return "MPI_Isend"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Msg is a Message directive: a transfer of Size bytes From one process
// To another. On a send directive the executing process must be From; on
// a receive it must be To.
type Msg struct {
	Kind MsgKind
	Size Expr
	From Expr
	To   Expr
	At   Pos
}

func (m *Msg) Pos() Pos { return m.At }

func (m *Msg) describe() string {
	var buf [128]byte
	b := append(buf[:0], "Message "...)
	b = append(b, m.Kind.String()...)
	b = appendExpr(append(b, " size="...), m.Size)
	b = appendExpr(append(b, " from="...), m.From)
	b = appendExpr(append(b, " to="...), m.To)
	return string(b)
}

// Coll is a Collective directive — an extension beyond the paper's
// directive set (which composes everything from point-to-point
// messages): the whole job synchronises on one collective operation
// whose per-process completion time is sampled from MPIBench's measured
// collective distributions. Root is optional (defaults to 0) and kept
// for documentation: it must evaluate, but the sampled distributions
// already mix over ranks.
type Coll struct {
	Op   string // benchmark operation name, e.g. "MPI_Bcast"
	Size Expr
	Root Expr // may be nil
	At   Pos
}

func (c *Coll) Pos() Pos { return c.At }

func (c *Coll) describe() string {
	var buf [128]byte
	b := append(buf[:0], "Collective "...)
	b = append(b, c.Op...)
	b = appendExpr(append(b, " size="...), c.Size)
	return string(b)
}

// Serial is a Serial directive: the executing process computes for Time
// seconds (PEVPM "Serial on perseus time = 3.24/numprocs").
type Serial struct {
	Machine string
	Time    Expr
	At      Pos
}

func (s *Serial) Pos() Pos { return s.At }

func (s *Serial) describe() string {
	if s.Machine == "" {
		return "Serial time=" + s.Time.String()
	}
	return "Serial on " + s.Machine + " time=" + s.Time.String()
}

// Program is a complete PEVPM model: global parameters plus the
// directive tree every process executes (parameterised by procnum).
//
// Evaluate keeps what it specialised a Program into and reuses it in
// later evaluations. It sees Params edited, or Body replaced, between
// evaluations: it compares the Params values and Body's first directive
// and length with those it specialised. It does not see a directive
// edited in place after an evaluation; build a new Program instead.
// Evaluations may run concurrently on one Program, but editing a
// Program while one runs is a data race.
type Program struct {
	// Params are model constants (grid sizes, iteration counts). The
	// evaluator adds procnum and numprocs per process.
	Params map[string]float64
	Body   Block
	// File is the source file the model was parsed from, recorded in
	// node positions; empty for bare-string or programmatic models.
	File string

	plans planCache
}

// NewProgram returns an empty program ready for the builder API.
func NewProgram() *Program {
	return &Program{Params: make(map[string]float64)}
}

// Describe renders one directive in the form error messages and lint
// findings use.
func Describe(n Node) string { return n.describe() }

// Walk calls fn for every node of the block in depth-first pre-order,
// descending into Loop bodies and every Runon branch. If fn returns
// false the node's children are skipped.
func Walk(b Block, fn func(Node) bool) {
	for _, n := range b {
		if n == nil || !fn(n) {
			continue
		}
		switch node := n.(type) {
		case *Loop:
			Walk(node.Body, fn)
		case *Runon:
			for _, body := range node.Bodies {
				Walk(body, fn)
			}
		}
	}
}

// Validate walks the tree and reports structural problems.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("pevpm: nil program")
	}
	return validateBlock(p.Body)
}

func validateBlock(b Block) error {
	for _, n := range b {
		switch node := n.(type) {
		case *Loop:
			if node.Count == nil {
				return fmt.Errorf("pevpm: Loop without a count")
			}
			if err := validateBlock(node.Body); err != nil {
				return err
			}
		case *Runon:
			if len(node.Conds) == 0 || len(node.Conds) != len(node.Bodies) {
				return fmt.Errorf("pevpm: Runon with %d conditions and %d bodies",
					len(node.Conds), len(node.Bodies))
			}
			for _, body := range node.Bodies {
				if err := validateBlock(body); err != nil {
					return err
				}
			}
		case *Msg:
			if node.Size == nil || node.From == nil || node.To == nil {
				return fmt.Errorf("pevpm: Message %s missing size/from/to", node.Kind)
			}
			if node.Kind < MsgSend || node.Kind > MsgIsend {
				return fmt.Errorf("pevpm: unknown message kind %v", node.Kind)
			}
		case *Coll:
			if node.Op == "" || node.Size == nil {
				return fmt.Errorf("pevpm: Collective missing type or size")
			}
		case *Serial:
			if node.Time == nil {
				return fmt.Errorf("pevpm: Serial without a time")
			}
		case nil:
			return fmt.Errorf("pevpm: nil directive in block")
		default:
			return fmt.Errorf("pevpm: unknown directive %T", n)
		}
	}
	return nil
}
