package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/mpilint"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// predict is the PEVPM user's job and the paper's Figure 6 loop:
// measure a database, then predict three applications at several
// placements with Monte-Carlo replications.
type predict struct {
	o     options
	cfg   cluster.Config
	db    *pevpm.EmpiricalDB
	cells []predictCell

	setupCounts counts
	dbFitS      float64
	executeS    float64
}

// predictCell is one (application, placement) pair.
type predictCell struct {
	app  string
	pl   cluster.Placement
	prog *pevpm.Program
	run  func(*mpi.Comm)
	msgs uint64  // messages every replication must send
	ref  float64 // reference simulated makespan, seconds

	lintFindings, lintErrors int
}

func (c predictCell) key() string { return c.app + ":" + c.pl.String() }

// The applications are sized so one replication takes 0.5–50 ms and
// their message sizes all sit on measured database sizes.
var (
	predJacobi   = workloads.Jacobi{XSize: 256, Iterations: 200, SweepSeconds: cluster.JacobiSweepSeconds}
	predFFT      = workloads.FFT{PointsPerProc: 1024, BytesPerPoint: 8, StageSeconds: 120e-9, Rounds: 10}
	predTaskFarm = workloads.DefaultTaskFarm()
	predDBSizes  = []int{0, 512, 1024, 2048, 8192}
)

// predictCells lists the replications of one round. Thirteen cells, so the median call falls inside one
// (application, placement) class rather than between two.
var predictCells = []struct {
	app   string
	procs int
}{
	{"jacobi", 64}, {"jacobi", 32}, {"jacobi", 16}, {"fft", 64}, {"jacobi", 8},
	{"taskfarm", 64}, {"fft", 32}, {"taskfarm", 32}, {"taskfarm", 16}, {"fft", 16},
	{"taskfarm", 8}, {"fft", 8}, {"taskfarm", 4},
}

// errRounds is how many replications per cell the prediction error
// averages: a fixed prefix, so the figure is deterministic per seed.
const errRounds = 3

func newPredict(o options) bench { return &predict{o: o} }

// jacobiMessages, fftMessages and taskFarmMessages are the fixed
// message counts of one execution or replication of each application.
func jacobiMessages(iterations, procs int) uint64 { return uint64(iterations * 2 * (procs - 1)) }

func fftMessages(rounds, procs int) uint64 {
	stages := 0
	for d := 1; d < procs; d <<= 1 {
		stages++
	}
	return uint64(rounds * stages * procs)
}

func taskFarmMessages(tasks, procs int) uint64 { return uint64(2*tasks + procs - 1) }

func (p *predict) setup(tr *tracer) error {
	p.cfg = cluster.Perseus()
	p.setupCounts = counts{}
	root := tr.begin("predict.setup", 0, 0)
	defer tr.end(root, nil)

	// Database: MPI_Send on n×1, n = 2…64, one mpibench.Run per cell.
	dbStart := cpuNow()
	dbSpan := tr.begin("predict.db", root, 0)
	var pls []cluster.Placement
	for n := 64; n >= 2; n /= 2 {
		pl, err := cluster.NewPlacement(&p.cfg, n, 1)
		if err != nil {
			return err
		}
		pls = append(pls, pl)
	}
	set := &mpibench.Set{Cluster: p.cfg.Name}
	for i, pl := range pls {
		id := tr.begin("mpibench.Run", dbSpan, int64(i))
		res, err := mpibench.Run(p.cfg, mpibench.Spec{
			Op: mpibench.OpSend, Sizes: predDBSizes, Placement: pl,
			Repetitions: 40, WarmUp: 5, SyncProbes: 10,
			Seed: sim.SubSeed(p.o.seed, "predict:db:"+pl.String()),
		})
		tr.end(id, nil)
		if err != nil {
			return err
		}
		if err := checkCell(res, predDBSizes, expectedSamples(pl, 40)); err != nil {
			return err
		}
		set.Add(res)
		p.setupCounts.addSnapshot(res.Metrics)
		n := recordedSamples(res)
		p.setupCounts.Samples += n
		p.setupCounts.Adds += n
	}
	id := tr.begin("pevpm.NewEmpiricalDB", dbSpan, 0)
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, p.cfg)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	p.db = db
	tr.end(dbSpan, nil)
	p.dbFitS = (cpuNow() - dbStart).Seconds()

	// Models, each linted at its placement's size.
	p.cells = nil
	for _, pc := range predictCells {
		pl, err := cluster.NewPlacement(&p.cfg, pc.procs, 1)
		if err != nil {
			return err
		}
		c := predictCell{app: pc.app, pl: pl}
		switch pc.app {
		case "jacobi":
			c.prog, err = predJacobi.Model()
			c.run, c.msgs = predJacobi.Run, jacobiMessages(predJacobi.Iterations, pc.procs)
		case "fft":
			c.prog = predFFT.Model(pc.procs)
			c.run, c.msgs = predFFT.Run, fftMessages(predFFT.Rounds, pc.procs)
		case "taskfarm":
			c.prog = predTaskFarm.Model(pc.procs)
			c.run, c.msgs = predTaskFarm.Run, taskFarmMessages(predTaskFarm.Tasks, pc.procs)
		}
		if err != nil {
			return err
		}
		id := tr.begin("mpilint.Analyze", root, 0)
		fs, err := mpilint.Analyze(c.prog, mpilint.Options{Procs: pc.procs})
		tr.end(id, map[string]float64{"findings": float64(len(fs))})
		if err != nil {
			return fmt.Errorf("lint %s: %w", c.key(), err)
		}
		// The verdicts are recorded, not enforced: with the default loop
		// unrolling, mpilint reports a deadlock cycle in the task farm's
		// unrolled master schedule, which the evaluation itself completes.
		c.lintErrors = mpilint.Count(fs, mpilint.SeverityError)
		c.lintFindings = len(fs)
		p.setupCounts.Lints++
		p.cells = append(p.cells, c)
	}

	// References: each cell executed once on the simulated cluster.
	refStart := cpuNow()
	refSpan := tr.begin("predict.reference", root, 0)
	defer tr.end(refSpan, nil)
	for i := range p.cells {
		c := &p.cells[i]
		id := tr.begin("workloads.Execute", refSpan, int64(i))
		res, err := workloads.Execute(p.cfg, c.pl, sim.SubSeed(p.o.seed, "predict:ref:"+c.key()), c.run)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		var cnt counts
		cnt.addSnapshot(res.Metrics)
		if cnt.messages() != c.msgs {
			return fmt.Errorf("reference %s sent %d messages, want %d", c.key(), cnt.messages(), c.msgs)
		}
		c.ref = res.Makespan.Seconds()
		if !(c.ref > 0) {
			return fmt.Errorf("reference %s: makespan %v", c.key(), res.Makespan)
		}
		p.setupCounts.add(cnt)
	}
	p.executeS = (cpuNow() - refStart).Seconds()
	return nil
}

func (p *predict) measure(lim limit, tr *tracer) (*pass, error) {
	pa := newPass(lim)
	pa.setupCounts = p.setupCounts
	pa.figures["pevpm.db_fit_s"], pa.figures["workloads.execute_s"] = p.dbFitS, p.executeS
	d := newDigest()
	var lintErrors int
	for _, c := range p.cells {
		d.str(c.key())
		d.float(c.ref)
		d.num(uint64(c.lintFindings))
		d.num(uint64(c.lintErrors))
		lintErrors += c.lintErrors
	}
	pa.figures["predict.lint_errors"] = float64(lintErrors)
	predSum := make([]float64, len(p.cells))
	var modelled, evalSeconds float64
	start, cpu0 := time.Now(), cpuNow()
	rounds := 0
	for r := 0; lim.more(r); r++ {
		round := tr.begin("predict.round", 0, int64(r))
		var done int64
		for i, c := range p.cells {
			var db pevpm.PerfDB = p.db
			var qc *quantileCounter
			if tr != nil {
				qc = newQuantileCounter(p.db, predDBSizes)
				db = qc
			}
			id := tr.begin("pevpm.Evaluate", round, int64(r*len(p.cells)+i))
			t0 := pa.startCall()
			rep, err := pevpm.Evaluate(c.prog, pevpm.Options{
				Procs: c.pl.NumProcs(), DB: db, NodeOf: c.pl.NodeOf,
				Seed: sim.SubSeed(p.o.seed, fmt.Sprintf("predict:r%d:%s", r, c.key())),
			})
			dur := pa.stopCall(t0, r)
			if qc != nil && err == nil {
				tr.end(id, map[string]float64{"quantiles": float64(qc.n), "draws": float64(drawCount(rep.Metrics))})
			} else {
				tr.end(id, nil)
			}
			pa.attempted++
			if err != nil {
				pa.fail(1, "round %d %s: %v", r, c.key(), err)
				continue
			}
			if rep.MessagesSent != c.msgs {
				pa.fail(1, "round %d %s: %d messages, want %d", r, c.key(), rep.MessagesSent, c.msgs)
				continue
			}
			if math.IsNaN(rep.Makespan) || math.IsInf(rep.Makespan, 0) || rep.Makespan <= 0 {
				pa.fail(1, "round %d %s: makespan %v", r, c.key(), rep.Makespan)
				continue
			}
			done++
			pa.counts.addSnapshot(rep.Metrics)
			if qc != nil {
				pa.counts.Quantiles += qc.n
			}
			modelled += rep.Makespan * float64(c.pl.NumProcs())
			evalSeconds += dur.Seconds()
			if r < errRounds {
				predSum[i] += rep.Makespan
			}
			if r == 0 || lim.fixed() {
				d.str(c.key())
				d.float(rep.Makespan)
				d.num(uint64(rep.Sweeps))
			}
		}
		tr.end(round, nil)
		pa.roundOps = append(pa.roundOps, float64(done))
		rounds++
	}
	pa.wall, pa.cpu = time.Since(start), cpuNow()-cpu0
	pa.digest, pa.digestOf = d.sum(), digestScope(lim, rounds, "rounds")
	if rounds >= errRounds {
		var errSum float64
		for i, c := range p.cells {
			errSum += math.Abs(predSum[i]/errRounds-c.ref) / c.ref * 100
		}
		pa.figures["pevpm.prediction_error_pct"] = errSum / float64(len(p.cells))
	}
	if evalSeconds > 0 {
		pa.figures["pevpm.modelled_cpu_s_per_s"] = modelled / evalSeconds
	}
	return pa, nil
}

func (p *predict) afterTrace(*tracer, *pass) error { return nil }

func (p *predict) close() {}

// quantileCounter forwards to an EmpiricalDB and counts the quantile
// functions each draw inverts: the database blends the bracketing
// contention levels (one, or two between measured levels) times the
// bracketing sizes. One counter serves one evaluation (one goroutine).
type quantileCounter struct {
	pevpm.PerfDB
	contentions []int
	sizes       []int
	n           uint64
}

func newQuantileCounter(db *pevpm.EmpiricalDB, sizes []int) *quantileCounter {
	return &quantileCounter{PerfDB: db, contentions: db.Contentions(), sizes: sizes}
}

// brackets is how many grid points bracket v: one at or beyond either
// end or on a point, two strictly between points.
func brackets(grid []int, v int) uint64 {
	if len(grid) == 0 || v <= grid[0] || v >= grid[len(grid)-1] {
		return 1
	}
	if i := sort.SearchInts(grid, v); grid[i] == v {
		return 1
	}
	return 2
}

func (q *quantileCounter) Sample(r stats.Rand, size, contention int) float64 {
	q.n += brackets(q.contentions, contention) * brackets(q.sizes, size)
	return q.PerfDB.Sample(r, size, contention)
}

func (q *quantileCounter) SampleIntra(r stats.Rand, size, contention int) float64 {
	// The database has no single-node placements, so intra-node draws
	// fall back to the inter-node grid.
	q.n += brackets(q.contentions, contention) * brackets(q.sizes, size)
	return q.PerfDB.SampleIntra(r, size, contention)
}
