package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/faults"
	"repro/internal/mpibench"
	"repro/internal/netsim"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the two pattern experiments the group-to-group
// engine feeds:
//
//   - PatternRun: a CommBench-style pattern driven directly through the
//     sharded network (one LP per leaf), scaling to thousand-node
//     fabrics with the same shard-count determinism contract as
//     LargeRun.
//   - PatternStudy: the figure-style validation — calibrate a pattern
//     on a short run, feed the measured round distributions into
//     pevpm.PatternDB, predict the makespan of a longer run, then
//     actually simulate that run and check the confidence intervals
//     agree.

// PatternRunSpec configures one sharded pattern run: a Rail/Fan/Dense
// matrix over a hierarchical topology, each pair streaming windowed
// rounds with per-window acknowledgements (the LargeRun protocol, with
// the ring replaced by an arbitrary sparse matrix).
type PatternRunSpec struct {
	// Topo is a cluster.ParseTopology spec, e.g. "fattree:2048x32x8".
	Topo string
	// Pattern, P, G, K and Direction select the matrix
	// (mpibench.BuildPattern); ranks map one-to-one onto nodes.
	Pattern   string
	P, G, K   int
	Direction mpibench.Direction
	// Rounds is how many send windows every pair completes; Window is
	// the number of data messages per window.
	Rounds int
	Window int
	// Size is the data payload in bytes; acknowledgements use the
	// cluster's CtrlBytes, so the two must differ.
	Size int
	Seed uint64
	// Workers is the worker-thread count (0 = GOMAXPROCS); every field
	// of the report is byte-identical at any value.
	Workers int
	Faults  *faults.Schedule
}

// prPair is one matrix pair's live state. The sender-side fields
// (rounds) are only touched on the source's LP, the receiver-side
// fields (recv) only on the destination's LP — race-free by ownership.
type prPair struct {
	src, dst int
	msgs     int // data messages per window (count × window)
	rounds   int // completed windows (sender side)
	recv     int // data messages of the current window seen (receiver side)
}

// PatternRun executes the spec over netsim.NewSharded and reports with
// the LargeRun report schema (the manifest's Pattern field carries the
// pattern key). The worker count never changes a byte of the report.
func PatternRun(spec PatternRunSpec) (*LargeRunReport, error) {
	topo, nodes, err := cluster.ParseTopology(spec.Topo)
	if err != nil {
		return nil, err
	}
	cfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		return nil, err
	}
	run := LargeRunSpec{
		Topo: spec.Topo, Rounds: spec.Rounds, Window: spec.Window, Size: spec.Size,
		Seed: spec.Seed, Workers: spec.Workers, Faults: spec.Faults,
	}
	// Refuse the run, and a shape the topology cannot hold, before
	// building a matrix of up to k²·g·(g−1) pairs for it.
	if err := run.check("patternrun", cfg); err != nil {
		return nil, err
	}
	if err := mpibench.CheckPattern(spec.Pattern, spec.P, spec.G, spec.K, spec.Direction, nodes); err != nil {
		return nil, fmt.Errorf("patternrun: topology %q: %w", spec.Topo, err)
	}
	matrix, err := mpibench.BuildPattern(spec.Pattern, spec.P, spec.G, spec.K, spec.Direction)
	if err != nil {
		return nil, err
	}
	key := mpibench.PatternCell{
		Pattern: spec.Pattern, P: spec.P, G: spec.G, K: spec.K,
		Window: spec.Window, Direction: spec.Direction,
	}.String()
	header := fmt.Sprintf("patternrun topo=%s pattern=%s nodes=%d rounds=%d window=%d size=%d seed=%d",
		topo.Name, key, nodes, spec.Rounds, spec.Window, spec.Size, spec.Seed)
	return windowedRun("patternrun", key, header, cfg, matrix, run)
}

// check refuses a windowed run's rounds, window and size on cfg; kind
// prefixes the errors.
func (s LargeRunSpec) check(kind string, cfg cluster.Config) error {
	switch {
	case s.Rounds <= 0 || s.Window <= 0:
		return fmt.Errorf("%s: rounds and window must be positive, got %d and %d", kind, s.Rounds, s.Window)
	case s.Size <= 0:
		return fmt.Errorf("%s: size must be positive, got %d", kind, s.Size)
	case s.Size == cfg.CtrlBytes:
		return fmt.Errorf("%s: size %d collides with the %d-byte acknowledgements", kind, s.Size, cfg.CtrlBytes)
	}
	return nil
}

// windowedRun is the driver behind LargeRun and PatternRun: every pair
// of the matrix streams Count × Window data messages per round over the
// sharded network of cfg, and the receiver acknowledges each window
// before the sender starts its next round. kind prefixes errors,
// pattern is the manifest's pattern key and header the transcript's
// first line; spec.Topo is not re-read, and the caller has checked
// spec (LargeRunSpec.check).
func windowedRun(kind, pattern, header string, cfg cluster.Config, matrix mpibench.Matrix, spec LargeRunSpec) (*LargeRunReport, error) {
	topo, nodes := cfg.Topo, cfg.Nodes
	if err := matrix.Check(nodes); err != nil {
		return nil, fmt.Errorf("%s: matrix rejected: %w", kind, err)
	}
	if spec.Faults != nil {
		if err := spec.Faults.ValidateFor(nodes, topo.NumSegments()); err != nil {
			return nil, err
		}
	}
	net, err := netsim.NewSharded(spec.Seed, cfg, spec.Workers)
	if err != nil {
		return nil, err
	}
	if spec.Faults != nil {
		net.SetFaults(spec.Faults)
	}

	pairs := make([]prPair, len(matrix.Pairs))
	index := make(map[[2]int]int, len(pairs)) // (src, dst) -> pair; lookups only
	for i, pr := range matrix.Pairs {
		pairs[i] = prPair{src: pr.Src, dst: pr.Dst, msgs: pr.Count * spec.Window}
		index[[2]int{pr.Src, pr.Dst}] = i
	}
	// state[r] carries the per-rank transcript counters, owned by r's
	// leaf LP: the delivery handler runs on the destination's LP and
	// every send a rank reacts with originates from itself. Distinct LPs
	// therefore write distinct index ranges — no locking, race-free by
	// ownership.
	state := make([]lrNode, nodes)
	sendWindow := func(i int) {
		p := &pairs[i]
		for m := 0; m < p.msgs; m++ {
			net.Send(p.src, p.dst, spec.Size)
		}
	}
	net.SetDeliver(func(src, dst, payload int, st netsim.TransferStats) {
		s := &state[dst]
		s.last = st.Delivered
		s.bytes += uint64(payload)
		if payload == cfg.CtrlBytes { // ack for pair dst->src, delivered at the sender
			s.ackSeen++
			i := index[[2]int{dst, src}]
			p := &pairs[i]
			p.rounds++
			if p.rounds < spec.Rounds {
				sendWindow(i)
			}
			return
		}
		s.dataSeen++
		s.latency += st.Delivered.Sub(st.Sent)
		i := index[[2]int{src, dst}]
		p := &pairs[i]
		p.recv++
		if p.recv == p.msgs {
			p.recv = 0
			net.Send(dst, src, cfg.CtrlBytes)
		}
	})
	// Kick-off: each pair's first window opens from its sender's LP, at
	// a start time staggered by the sender's position within its leaf so
	// a 32-port leaf does not fire 32 simultaneous events.
	for i := range pairs {
		pair := i
		src := pairs[i].src
		at := sim.Time(src%topo.LeafPorts+1) * sim.Time(sim.Microsecond)
		net.Engine(net.OwnerLP(src)).At(at, func() { sendWindow(pair) })
	}
	makespan, err := net.Run()
	if err != nil {
		return nil, err
	}
	for i := range pairs {
		if got := pairs[i].rounds; got != spec.Rounds {
			return nil, fmt.Errorf("%s: pair %d->%d finished %d of %d rounds",
				kind, pairs[i].src, pairs[i].dst, got, spec.Rounds)
		}
	}

	rep := &LargeRunReport{
		Manifest: LargeRunManifest{
			Schema:      1,
			Pattern:     pattern,
			Topology:    topo.Name,
			Nodes:       nodes,
			LPs:         net.NumLPs(),
			Rounds:      spec.Rounds,
			Window:      spec.Window,
			Size:        spec.Size,
			Seed:        spec.Seed,
			Cluster:     cfg.Name,
			ClusterHash: mpibench.ClusterHash(&cfg),
			GoVersion:   runtime.Version(),
		},
		Makespan: makespan,
		Windows:  net.Windows(),
		Counters: net.Counters(),
		Metrics:  net.MetricsSnapshot(),
	}
	if spec.Faults != nil {
		rep.Manifest.Scenario = spec.Faults.Name
	}

	// Per-leaf aggregation in LP order: compact at 2048 nodes, still
	// sensitive to any divergence in any rank's deliveries.
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for leaf := 0; leaf < topo.Leaves; leaf++ {
		lo := leaf * topo.LeafPorts
		hi := lo + topo.LeafPorts
		if hi > nodes {
			hi = nodes
		}
		var data, acks, bytes uint64
		var latency sim.Duration
		var last sim.Time
		active := false
		for r := lo; r < hi; r++ {
			s := &state[r]
			data += s.dataSeen
			acks += s.ackSeen
			bytes += s.bytes
			latency += s.latency
			if s.last > last {
				last = s.last
			}
			if s.dataSeen+s.ackSeen > 0 {
				active = true
			}
		}
		if !active {
			continue // patterns touch a sparse subset of a big fabric
		}
		fmt.Fprintf(&b, "leaf%d data=%d acks=%d bytes=%d latency=%v last=%v\n",
			leaf, data, acks, bytes, latency, last)
	}
	fmt.Fprintf(&b, "makespan=%v windows=%d counters=%+v\n", makespan, net.Windows(), rep.Counters)
	rep.Transcript = b.String()
	return rep, nil
}

// PatternStudyCell is one topology × pattern × shape cell of the study.
type PatternStudyCell struct {
	Topo      string
	Pattern   string
	P, G, K   int
	Window    int
	Size      int
	Direction mpibench.Direction
}

func (c PatternStudyCell) key() string {
	return fmt.Sprintf("%s:%s:p%dg%dk%d:w%d:%s:s%d",
		c.Topo, c.Pattern, c.P, c.G, c.K, c.Window, c.Direction, c.Size)
}

// DefaultPatternStudyCells is the shipped study grid: Rail, Fan and
// Dense over the 2048-node fat tree (groups = 32-port leaves, so the
// pattern crosses leaf boundaries) and over a dragonfly (groups = the
// dragonfly's 32-node groups, so the pattern crosses global links).
func DefaultPatternStudyCells() []PatternStudyCell {
	var cells []PatternStudyCell
	for _, topo := range []string{"fattree:2048x32x8", "dragonfly:8x4x8"} {
		for _, pattern := range []string{mpibench.PatternRail, mpibench.PatternFan, mpibench.PatternDense} {
			cells = append(cells, PatternStudyCell{
				Topo: topo, Pattern: pattern,
				P: 32, G: 4, K: 2, Window: 2, Size: 16384,
				Direction: mpibench.Unidirectional,
			})
		}
	}
	return cells
}

// PatternStudyParams configures the study.
type PatternStudyParams struct {
	Cells []PatternStudyCell // nil: DefaultPatternStudyCells
	// CalRounds is the calibration run length (rounds fed into the
	// PatternDB); ValRounds the independent validation run whose
	// makespan is predicted; Reps the Monte-Carlo replication count.
	CalRounds int
	ValRounds int
	Reps      int
	Level     float64 // confidence level (default 0.95)
	Seed      uint64
	Workers   int
}

func (p PatternStudyParams) defaults() PatternStudyParams {
	if p.Cells == nil {
		p.Cells = DefaultPatternStudyCells()
	}
	if p.CalRounds == 0 {
		p.CalRounds = 30
	}
	if p.ValRounds == 0 {
		p.ValRounds = 60
	}
	if p.Reps == 0 {
		p.Reps = 40
	}
	if p.Level == 0 {
		p.Level = 0.95
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	return p
}

// PatternStudyRow is one cell's verdict: the PEVPM-predicted makespan
// interval of the validation run against the simulated one.
type PatternStudyRow struct {
	Topo      string             `json:"topo"`
	Pattern   string             `json:"pattern"`
	P         int                `json:"p"`
	G         int                `json:"g"`
	K         int                `json:"k"`
	Window    int                `json:"window"`
	Size      int                `json:"size"`
	Direction mpibench.Direction `json:"direction"`
	Rounds    int                `json:"rounds"`
	Bandwidth float64            `json:"bandwidth_bps"`
	Predicted stats.Interval     `json:"predicted"`
	Simulated stats.Interval     `json:"simulated"`
	Agree     bool               `json:"agree"`
}

// PatternStudy runs every cell: a calibration pattern benchmark builds
// a pevpm.PatternDB, PredictMakespan predicts the makespan of ValRounds
// further rounds, and an independent (different sub-seed) simulation of
// those rounds provides the measured interval. The predicted interval
// combines the Monte-Carlo spread with the calibration run's own mean
// uncertainty scaled to the full makespan; the simulated interval is
// the validation run's Student-t mean-round CI scaled the same way.
// Agreement is stats.Overlap of the two — the PR 7 criterion. Cells run
// on the sweep pool and are bit-identical at any worker count.
func PatternStudy(params PatternStudyParams) ([]PatternStudyRow, error) {
	params = params.defaults()
	rows, err := sweep.Map(params.Workers, len(params.Cells), func(i int) (PatternStudyRow, error) {
		return patternStudyCell(params, params.Cells[i])
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func patternStudyCell(params PatternStudyParams, cell PatternStudyCell) (PatternStudyRow, error) {
	row := PatternStudyRow{
		Topo: cell.Topo, Pattern: cell.Pattern,
		P: cell.P, G: cell.G, K: cell.K, Window: cell.Window,
		Size: cell.Size, Direction: cell.Direction, Rounds: params.ValRounds,
	}
	topo, nodes, err := cluster.ParseTopology(cell.Topo)
	if err != nil {
		return row, err
	}
	cfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		return row, err
	}
	// The placement covers exactly the pattern's ranks: one per node,
	// leaf-first, so group boundaries are fabric boundaries.
	pl, err := cluster.NewPlacement(&cfg, cell.P*cell.G, 1)
	if err != nil {
		return row, err
	}
	base := mpibench.PatternSpec{
		Pattern: cell.Pattern, P: cell.P, G: cell.G, K: cell.K,
		Direction: cell.Direction, Window: cell.Window,
		Placement: pl, Sizes: []int{cell.Size}, WarmUp: 4,
	}

	cal := base
	cal.Rounds = params.CalRounds
	cal.Seed = sim.SubSeed(params.Seed, "pattern-study:cal:"+cell.key())
	calRes, err := mpibench.RunPattern(cfg, cal)
	if err != nil {
		return row, fmt.Errorf("pattern study %s: calibration: %w", cell.key(), err)
	}
	db, err := pevpm.NewPatternDB(&mpibench.Set{Cluster: cfg.Name, Results: []*mpibench.Result{calRes}})
	if err != nil {
		return row, err
	}
	rng := sim.NewCellRNG(params.Seed, "pattern-study:predict:"+cell.key())
	pred, err := db.PredictMakespan(rng, *calRes.Pattern, cell.Size, params.ValRounds, params.Reps, params.Level)
	if err != nil {
		return row, err
	}
	// Widen by the calibration uncertainty: the Monte-Carlo interval
	// only carries round-to-round spread, but the database itself was
	// estimated from CalRounds rounds, and that mean error scales with
	// the full makespan.
	calPt, _ := calRes.PointFor(cell.Size)
	calCI := stats.StudentCI(calPt.MaxHist.SummaryStats(), params.Level)
	calHW := calCI.HalfWidth() * float64(params.ValRounds)
	pred.Lo -= calHW
	pred.Hi += calHW
	row.Predicted = pred

	val := base
	val.Rounds = params.ValRounds
	val.Seed = sim.SubSeed(params.Seed, "pattern-study:val:"+cell.key())
	valRes, err := mpibench.RunPattern(cfg, val)
	if err != nil {
		return row, fmt.Errorf("pattern study %s: validation: %w", cell.key(), err)
	}
	valPt, _ := valRes.PointFor(cell.Size)
	simCI := stats.StudentCI(valPt.MaxHist.SummaryStats(), params.Level)
	row.Simulated = stats.Interval{
		Point: simCI.Point * float64(params.ValRounds),
		Lo:    simCI.Lo * float64(params.ValRounds),
		Hi:    simCI.Hi * float64(params.ValRounds),
		Level: simCI.Level,
	}
	row.Bandwidth = valPt.Bandwidth
	row.Agree = stats.Overlap(row.Predicted, row.Simulated)
	return row, nil
}
