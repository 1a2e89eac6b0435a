package mpibench

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// This file is the group-to-group pattern vocabulary (CommBench's
// Rail/Fan/Dense): arbitrary sparse point-to-point matrices plus the
// (p, g, k) builders that generate them. The flat point-to-point and
// collective suite in spec.go measures a whole machine at once; the
// patterns here instead load a *structured* subset of the network —
// the inter-leaf and inter-group links a hierarchical topology
// actually bottlenecks on — so aggregate behaviour becomes
// attributable to specific fabric levels.

// Pattern names understood by BuildPattern and PatternSpec.
const (
	PatternRail   = "rail"   // rank i of group a -> rank i of group b, i < k
	PatternFan    = "fan"    // group a's lead rank -> first k ranks of group b
	PatternDense  = "dense"  // first k ranks of a -> first k ranks of b, all pairs
	PatternCustom = "custom" // caller-supplied Matrix, no builder
)

// Direction selects which ordered group pairs a builder connects.
type Direction string

const (
	// Unidirectional: group 0 sends to every other group.
	Unidirectional Direction = "uni"
	// Bidirectional: group 0 exchanges with every other group, both ways.
	Bidirectional Direction = "bi"
	// Omnidirectional: every ordered pair of distinct groups.
	Omnidirectional Direction = "omni"
)

// Valid reports whether the direction is known.
func (d Direction) Valid() bool {
	switch d {
	case Unidirectional, Bidirectional, Omnidirectional:
		return true
	}
	return false
}

// ParseDirection parses a direction flag value.
func ParseDirection(s string) (Direction, error) {
	d := Direction(s)
	if !d.Valid() {
		return "", fmt.Errorf("mpibench: unknown direction %q (want uni, bi or omni)", s)
	}
	return d, nil
}

// ParseShape parses a pattern shape "pxgxk", e.g. "32x4x2". Spaces
// around a field are ignored.
func ParseShape(s string) (p, g, k int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad pattern shape %q (want pxgxk, e.g. 32x4x2)", s)
	}
	dims := make([]int, 3)
	for i, part := range parts {
		if dims[i], err = strconv.Atoi(strings.TrimSpace(part)); err != nil {
			return 0, 0, 0, fmt.Errorf("bad pattern shape %q: %v", s, err)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// Pair is one directed sender/receiver edge of a pattern matrix: Count
// messages flow Src -> Dst per window slot of every round.
type Pair struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Count int `json:"count"`
}

// Matrix is a sparse point-to-point communication matrix: the exact
// set of (sender, receiver, message count) edges one pattern round
// exercises. Pairs stay in insertion order, so a matrix built by the
// deterministic builders is itself deterministic.
type Matrix struct {
	Pairs []Pair `json:"pairs"`
}

// Add registers count messages per window slot from src to dst,
// merging with an existing pair for the same edge.
//
//detlint:allow unused -- TestBuildPatternMatchesAdd checks BuildPattern against it
func (m *Matrix) Add(src, dst, count int) {
	for i := range m.Pairs {
		if m.Pairs[i].Src == src && m.Pairs[i].Dst == dst {
			m.Pairs[i].Count += count
			return
		}
	}
	m.Pairs = append(m.Pairs, Pair{Src: src, Dst: dst, Count: count})
}

// Empty reports whether the matrix has no edges.
func (m Matrix) Empty() bool { return len(m.Pairs) == 0 }

// MessagesPerWindow is the total message count of one window slot.
func (m Matrix) MessagesPerWindow() int {
	n := 0
	for _, p := range m.Pairs {
		n += p.Count
	}
	return n
}

// Check validates the matrix against a placement of procs ranks. It
// names the first pair that could never execute (a rank outside the
// placement, a self-pair or a non-positive count) and how many such
// pairs there are; nil means the matrix can execute.
func (m Matrix) Check(procs int) error {
	var first string
	bad := 0
	for i, p := range m.Pairs {
		var why string
		switch {
		case p.Src < 0 || p.Src >= procs:
			why = fmt.Sprintf("pair %d (%d->%d) names sender outside the %d-rank placement", i, p.Src, p.Dst, procs)
		case p.Dst < 0 || p.Dst >= procs:
			why = fmt.Sprintf("pair %d (%d->%d) names receiver outside the %d-rank placement", i, p.Src, p.Dst, procs)
		case p.Src == p.Dst:
			why = fmt.Sprintf("pair %d is a self-pair (rank %d)", i, p.Src)
		case p.Count < 1:
			why = fmt.Sprintf("pair %d (%d->%d) has message count %d", i, p.Src, p.Dst, p.Count)
		default:
			continue
		}
		if bad == 0 {
			first = why
		}
		bad++
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("%s (%d of %d pairs impossible)", first, bad, len(m.Pairs))
}

// CheckPattern reports the first problem with a named pattern that can
// be found without building its matrix: an unknown pattern or
// direction, p, g or k out of range, or more than ranks ranks in its
// p·g. Call it before BuildPattern, whose Dense omnidirectional matrix
// has k²·g·(g−1) pairs, so that an oversized shape is refused before
// it is built.
func CheckPattern(name string, p, g, k int, dir Direction, ranks int) error {
	switch name {
	case PatternRail, PatternFan, PatternDense:
	default:
		return fmt.Errorf("mpibench: unknown pattern %q (want rail, fan or dense)", name)
	}
	if p < 1 || g < 2 || k < 1 || k > p {
		return fmt.Errorf("mpibench: pattern %s wants p >= 1, g >= 2, 1 <= k <= p, got p=%d g=%d k=%d",
			name, p, g, k)
	}
	if !dir.Valid() {
		return fmt.Errorf("mpibench: pattern %s: unknown direction %q", name, dir)
	}
	if p > ranks/g { // p·g > ranks, without overflowing p·g
		return fmt.Errorf("mpibench: pattern %s needs p*g = %d*%d ranks, only %d available",
			name, p, g, ranks)
	}
	return nil
}

// BuildPattern assembles the matrix for a named pattern over g groups
// of p consecutive ranks with k participants per group (ranks
// [m*p, m*p+k) of group m). Group pairs come from the direction:
// unidirectional is group 0 -> every other group, bidirectional adds
// the reverse edges, omnidirectional connects every ordered pair.
func BuildPattern(name string, p, g, k int, dir Direction) (Matrix, error) {
	var m Matrix
	if err := CheckPattern(name, p, g, k, dir, math.MaxInt); err != nil {
		return m, err
	}
	// Groups are disjoint rank ranges and every group pair is visited
	// once, so no two edges coincide: append them directly rather than
	// through Add, whose duplicate scan makes a build quadratic.
	edge := func(src, dst int) {
		m.Pairs = append(m.Pairs, Pair{Src: src, Dst: dst, Count: 1})
	}
	between := func(a, b int) {
		switch name {
		case PatternRail:
			// k parallel rails: participant i of a talks only to its
			// peer i of b, so rails contend on the fabric, never on a NIC.
			for i := 0; i < k; i++ {
				edge(a*p+i, b*p+i)
			}
		case PatternFan:
			// Group a's lead fans out to the first k ranks of b: one NIC
			// drives k flows (an incast in the bi/omni variants).
			for i := 0; i < k; i++ {
				edge(a*p, b*p+i)
			}
		case PatternDense:
			// All k*k participant pairs: the densest group-to-group load,
			// the pattern whose makespan PEVPM must predict.
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					edge(a*p+i, b*p+j)
				}
			}
		}
	}
	switch dir {
	case Unidirectional:
		for b := 1; b < g; b++ {
			between(0, b)
		}
	case Bidirectional:
		for b := 1; b < g; b++ {
			between(0, b)
			between(b, 0)
		}
	case Omnidirectional:
		for a := 0; a < g; a++ {
			for b := 0; b < g; b++ {
				if a != b {
					between(a, b)
				}
			}
		}
	}
	return m, nil
}

// PatternSpec describes one group-to-group pattern benchmark: which
// matrix to drive, how many windowed rounds to measure, and the usual
// clock/fault/estimate knobs shared with Spec.
type PatternSpec struct {
	// Pattern is rail, fan, dense or custom. For the named patterns the
	// matrix is generated from (P, G, K, Direction); PatternCustom runs
	// the caller-supplied Matrix as-is.
	Pattern   string
	P, G, K   int
	Direction Direction

	// Window is the number of in-flight messages per pair before the
	// round's completion sync (Waitall): window 1 is a synchronous
	// ping per pair, larger windows pipeline the fabric.
	Window int

	// Matrix is the sparse communication matrix. Left empty for named
	// patterns (built on demand); required for PatternCustom.
	Matrix Matrix

	Sizes []int // message sizes in bytes (one distribution per size)

	// Rounds is the number of measured windowed rounds per size; WarmUp
	// rounds run first and are discarded.
	Rounds int
	WarmUp int

	// BinWidth is the histogram bin width in seconds.
	BinWidth float64

	Placement cluster.Placement

	// PerfectClocks replaces the drifting per-node clocks with ideal
	// ones. Pattern rounds are timed start-to-finish on each rank's own
	// clock, so offsets cancel by construction and only skew (<= 50 ppm)
	// and read granularity remain; PerfectClocks removes even those.
	PerfectClocks bool

	// Faults, when non-nil, perturbs the simulated cluster for the whole
	// run — pattern benchmarking under faults is exactly as reproducible
	// as the healthy run.
	Faults *faults.Schedule

	// Estimates attaches the PR 7 estimator block (Student-t mean CI,
	// bootstrap quantile CI, robust trio) to every point.
	Estimates bool

	// Seed drives all simulation randomness.
	Seed uint64

	// Workers spreads RunPatternSweep cells over goroutines; results are
	// bit-identical at any count (per-cell sim.SubSeed streams, merge in
	// cell order).
	Workers int
}

// Defaults fills unset scalar fields with sensible values. The matrix
// of a named pattern is materialised by RunPattern, not here, so
// builder errors surface as errors rather than panics.
func (s PatternSpec) Defaults() PatternSpec {
	if s.Pattern == "" {
		s.Pattern = PatternDense
	}
	if s.Direction == "" {
		s.Direction = Unidirectional
	}
	if s.Window == 0 {
		s.Window = 4
	}
	if s.Rounds == 0 {
		s.Rounds = 60
	}
	if s.WarmUp == 0 {
		s.WarmUp = 5
	}
	if s.BinWidth == 0 {
		s.BinWidth = 5e-6
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{1024, 16384, 65536}
	}
	return s
}

// PatternCell selects one cell of a pattern sweep: the pattern name,
// its (p, g, k) shape, the window depth and the direction. Zero Window
// and empty Direction inherit the base spec's values. A pattern Result
// carries its cell, resolved, as its key.
type PatternCell struct {
	Pattern   string    `json:"pattern"`
	P         int       `json:"p"`
	G         int       `json:"g"`
	K         int       `json:"k"`
	Window    int       `json:"window,omitempty"`
	Direction Direction `json:"direction,omitempty"`
}

// String formats the cell as its key, e.g. "dense:p32g4k2:w2:uni".
func (c PatternCell) String() string {
	return fmt.Sprintf("%s:p%dg%dk%d:w%d:%s", c.Pattern, c.P, c.G, c.K, c.Window, c.Direction)
}

// cell is the pattern cell the spec measures.
func (s PatternSpec) cell() PatternCell {
	return PatternCell{Pattern: s.Pattern, P: s.P, G: s.G, K: s.K, Window: s.Window, Direction: s.Direction}
}

// benchSpec is the part of the spec an operation benchmark shares —
// sizes, placement, rounds as repetitions, warm-up, bins, clocks,
// faults, estimates and seed — so a pattern run builds its machine,
// manifest and estimates the way Run does. It names no Op.
func (s PatternSpec) benchSpec() Spec {
	return Spec{
		Sizes:         s.Sizes,
		Placement:     s.Placement,
		Repetitions:   s.Rounds,
		WarmUp:        s.WarmUp,
		BinWidth:      s.BinWidth,
		PerfectClocks: s.PerfectClocks,
		Faults:        s.Faults,
		Estimates:     s.Estimates,
		Seed:          s.Seed,
	}
}

// resolve is RunPattern's front end, everything it does before the
// simulation: it fills the spec's defaults, checks everything but the
// matrix before building a named pattern's matrix, builds it and
// validates the whole spec. The spec it returns is ready to run.
func (s PatternSpec) resolve(cfg *cluster.Config) (PatternSpec, error) {
	s = s.Defaults()
	if s.Pattern != PatternCustom && s.Matrix.Empty() {
		if err := s.checkBeforeBuild(cfg); err != nil {
			return s, err
		}
		m, err := BuildPattern(s.Pattern, s.P, s.G, s.K, s.Direction)
		if err != nil {
			return s, err
		}
		s.Matrix = m
	}
	return s, s.Validate(cfg)
}

// Validate reports the first problem with the spec. The matrix must
// already be materialised (RunPattern does this); Matrix.Check finds
// its impossible pairs.
func (s PatternSpec) Validate(cfg *cluster.Config) error {
	if err := s.checkBeforeBuild(cfg); err != nil {
		return err
	}
	if s.Matrix.Empty() {
		return fmt.Errorf("mpibench: pattern %s has an empty matrix", s.Pattern)
	}
	if err := s.Matrix.Check(s.Placement.NumProcs()); err != nil {
		return fmt.Errorf("mpibench: pattern %s matrix rejected: %w", s.Pattern, err)
	}
	return nil
}

// checkBeforeBuild reports the first problem with the spec that can be
// found before its matrix is built: the placement, a named pattern's
// shape on it (CheckPattern) or a custom one's direction, the window,
// rounds, bin width, sizes and faults.
func (s PatternSpec) checkBeforeBuild(cfg *cluster.Config) error {
	if _, err := cluster.NewPlacement(cfg, s.Placement.NodeCount, s.Placement.PerNode); err != nil {
		return err
	}
	if s.Pattern != PatternCustom {
		if err := CheckPattern(s.Pattern, s.P, s.G, s.K, s.Direction, s.Placement.NumProcs()); err != nil {
			return err
		}
	} else if !s.Direction.Valid() {
		return fmt.Errorf("mpibench: unknown direction %q", s.Direction)
	}
	if s.Window < 1 {
		return fmt.Errorf("mpibench: window %d invalid", s.Window)
	}
	if s.Rounds <= 0 || s.WarmUp < 0 {
		return fmt.Errorf("mpibench: rounds %d / warmup %d invalid", s.Rounds, s.WarmUp)
	}
	if s.BinWidth <= 0 {
		return fmt.Errorf("mpibench: bin width %v invalid", s.BinWidth)
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("mpibench: no message sizes")
	}
	for _, size := range s.Sizes {
		if size < 0 {
			return fmt.Errorf("mpibench: negative message size %d", size)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("mpibench: %w", err)
	}
	return nil
}

// sweepWorkers resolves Workers for RunPatternSweep.
func (s PatternSpec) sweepWorkers() int {
	if s.Workers <= 0 {
		return 1
	}
	return s.Workers
}
