// Command run executes one of the bundled workloads on the simulated
// cluster and reports what happened — optionally with a per-rank
// timeline (ASCII Gantt) and a Chrome trace-event file for
// chrome://tracing / Perfetto.
//
// Usage:
//
//	run -app jacobi -config 8x1 -gantt
//	run -app taskfarm -config 16x1 -chrome-trace farm.json
//	run -app fft -machine myrinet -config 16x1
//	run -app jacobi -config 4x1 -faults flaky-nic -chrome-trace j.json
//
// -faults injects a scenario preset (docs/FAULTS.md) retargeted onto
// the job's physical nodes; the Chrome export then shows the fault
// windows on their own track above the rank timelines.
//
// -app largerun switches to the sharded large-cluster mode: a windowed
// ring over a hierarchical topology (-topo, docs/TOPOLOGY.md),
// partitioned one logical process per leaf switch and executed by
// -shards worker threads. Everything printed or written is
// byte-identical at every -shards value:
//
//	run -app largerun -topo fattree:2048x32x8 -shards 4
//	run -app largerun -topo dragonfly:8x4x8 -shards 2 -faults congested-backplane
//
// -app patternrun drives a group-to-group pattern (docs/PATTERNS.md)
// through the same sharded executor — Rail/Fan/Dense between -pgk
// groups, windowed acked rounds, byte-identical at every -shards
// value. -app patternstudy runs the predicted-vs-simulated makespan
// study: calibrate a PEVPM pattern database on each topology, predict
// the validation makespan, and check the intervals overlap:
//
//	run -app patternrun -topo fattree:2048x32x8 -pattern dense -pgk 32x4x2
//	run -app patternstudy -seed 42 -shards 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "jacobi", "workload: jacobi, fft, taskfarm, summa, largerun, patternrun, patternstudy")
	topoSpec := flag.String("topo", "fattree:2048x32x8", "largerun: hierarchical topology spec (docs/TOPOLOGY.md)")
	shards := flag.Int("shards", 0, "largerun: worker threads executing the sharded run (0 = all cores; never changes output)")
	rounds := flag.Int("rounds", 2, "largerun: send windows per rank")
	window := flag.Int("window", 4, "largerun: messages per window")
	msgSize := flag.Int("msg-size", 16384, "largerun: data message payload bytes")
	manifestOut := flag.String("manifest", "", "largerun: write the reproducibility manifest JSON to this file")
	machine := flag.String("machine", "perseus", "cluster: perseus, myrinet")
	config := flag.String("config", "8x1", "placement in nxp notation")
	seed := flag.Uint64("seed", 1, "simulation seed")
	iterations := flag.Int("iterations", 50, "jacobi iterations / fft rounds / farm tasks scale")
	gantt := flag.Bool("gantt", false, "print an ASCII utilisation timeline")
	chromeOut := flag.String("chrome-trace", "", "write a Chrome trace-event JSON file")
	block := flag.Bool("block-placement", false, "use physically contiguous nodes instead of scheduler scatter")
	faultsFlag := flag.String("faults", "", "inject a fault-scenario preset onto the job's nodes (see docs/FAULTS.md)")
	faultsSpan := flag.Float64("faults-span", 0.5, "seconds the fault windows are drawn over")
	metricsOut := flag.String("metrics", "", "write the run's instrument snapshot as JSON to this file")
	metricsProm := flag.String("metrics-prom", "", "write the run's instrument snapshot as Prometheus text to this file")
	pattern := flag.String("pattern", "dense", "patternrun: group-to-group pattern (rail, fan, dense)")
	pgk := flag.String("pgk", "32x4x2", "patternrun: pattern shape pxgxk")
	direction := flag.String("direction", "uni", "patternrun: direction (uni, bi, omni)")
	calRounds := flag.Int("cal-rounds", 0, "patternstudy: calibration rounds (0 = default)")
	valRounds := flag.Int("val-rounds", 0, "patternstudy: validation rounds (0 = default)")
	predictReps := flag.Int("predict-reps", 0, "patternstudy: Monte-Carlo replications (0 = default)")
	flag.Parse()

	if *app == "largerun" {
		runLarge(*topoSpec, *shards, *rounds, *window, *msgSize, *seed,
			*faultsFlag, *faultsSpan, *manifestOut, *metricsOut, *metricsProm)
		return
	}
	if *app == "patternrun" {
		runPattern(*topoSpec, *pattern, *pgk, *direction, *shards, *rounds, *window,
			*msgSize, *seed, *faultsFlag, *faultsSpan, *manifestOut, *metricsOut, *metricsProm)
		return
	}
	if *app == "patternstudy" {
		runPatternStudy(*calRounds, *valRounds, *predictReps, *seed, *shards)
		return
	}

	var cfg cluster.Config
	switch *machine {
	case "perseus":
		cfg = cluster.Perseus()
	case "myrinet":
		cfg = cluster.Myrinet()
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}
	want, err := cluster.ParsePlacement(&cfg, *config)
	if err != nil {
		fatal(err)
	}
	pl := want
	if *block {
		if pl, err = cluster.NewBlockPlacement(&cfg, want.NodeCount, want.PerNode); err != nil {
			fatal(err)
		}
	}

	var program func(c *mpi.Comm)
	switch *app {
	case "jacobi":
		j := workloads.DefaultJacobi()
		j.Iterations = *iterations
		program = j.Run
	case "fft":
		f := workloads.DefaultFFT()
		f.Rounds = *iterations
		program = f.Run
	case "taskfarm":
		tf := workloads.DefaultTaskFarm()
		tf.Tasks = *iterations * 4
		program = tf.Run
	case "summa":
		s := workloads.DefaultSumma()
		s.Iterations = *iterations
		program = s.Run
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	var sched *faults.Schedule
	if *faultsFlag != "" {
		s, err := cluster.Scenario(*faultsFlag, *seed, cluster.ScenarioEnv{
			Nodes: pl.NodeCount, Segments: cfg.NumSegments(), Span: *faultsSpan,
		})
		if err != nil {
			fatal(err)
		}
		retargetNodes(s, pl)
		sched = s
	}

	e := sim.NewEngine(*seed)
	net := netsim.New(e, cfg)
	w := mpi.NewWorld(e, net, pl)
	tl := trace.NewLog(2_000_000)
	w.SetTrace(tl)
	if sched != nil {
		w.SetFaults(sched)
		fmt.Printf("fault scenario %s over [0, %.2fs):\n", sched.Name, *faultsSpan)
		for _, r := range sched.Rules {
			fmt.Printf("  %s\n", r.String())
		}
	}
	w.Launch(program)
	end, err := w.Wait()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s on %s %s finished at t=%v\n", *app, cfg.Name, pl, end)
	st := net.Stats()
	fmt.Printf("network: %d transfers (%d intra-node, %d cross-switch), %d retransmissions, %.1f MB on the wire\n",
		st.Transfers, st.IntraNode, st.CrossSwitch, st.Retries, float64(st.WireBytes)/1e6)
	if sched != nil {
		to := w.Timeouts()
		fmt.Printf("faults: %d fault-attributed drops; %d messages hit a timeout (worst stretch %v)\n",
			st.FaultDrops, to.Messages, to.Worst)
	}
	u := net.UtilizationSince(0)
	fmt.Printf("busiest: NIC %.0f%%, fabric %.0f%%, backplane segment %.0f%%\n",
		u.BusiestNICTx*100, u.BusiestFabric*100, u.BusiestSegment*100)

	if *gantt {
		fmt.Println()
		fmt.Print(tl.Gantt(100))
		fmt.Println("(C compute, r receive-wait, s send, . idle)")
	}
	for _, s := range tl.Summaries() {
		if s.Rank < 4 || s.Rank == pl.NumProcs()-1 {
			fmt.Printf("rank%-4d %4d sends %4d recvs  compute %10v  recv-wait %10v\n",
				s.Rank, s.Sends, s.Recvs, s.Compute, s.RecvWait)
		}
	}
	fmt.Print(tl.TruncationNote())
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fatal(err)
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (load in chrome://tracing or Perfetto)\n", *chromeOut)
	}
	if *metricsOut != "" || *metricsProm != "" {
		writeSnapshot(e.Metrics().Snapshot(), *metricsOut, *metricsProm)
	}
}

// retargetNodes maps node-targeted rules from the logical node indices
// cluster.Scenario draws onto the physical nodes the placement actually
// occupies, so scenarios hit scattered jobs too. Backplane rules target
// stacking segments, not nodes, and AllTargets stays universal.
func retargetNodes(s *faults.Schedule, pl cluster.Placement) {
	for i := range s.Rules {
		r := &s.Rules[i]
		if r.Kind == faults.BackplaneDegrade || r.Target == faults.AllTargets {
			continue
		}
		r.Target = pl.NodeOf(r.Target * pl.PerNode)
	}
}

// runLarge executes the sharded large-cluster mode. Everything it
// prints or writes is part of the determinism contract: the Makefile's
// sharded-vs-serial gate diffs this output across -shards values.
func runLarge(topoSpec string, shards, rounds, window, msgSize int, seed uint64,
	faultsName string, faultsSpan float64, manifestOut, metricsOut, metricsProm string) {
	rep, err := experiments.LargeRun(experiments.LargeRunSpec{
		Topo:    topoSpec,
		Rounds:  rounds,
		Window:  window,
		Size:    msgSize,
		Seed:    seed,
		Workers: shards,
		Faults:  topologyFaults(topoSpec, faultsName, seed, faultsSpan),
	})
	if err != nil {
		fatal(err)
	}
	report(rep, manifestOut, metricsOut, metricsProm)
}

// runPattern executes one group-to-group pattern through the sharded
// executor. Like runLarge, everything printed is part of the
// determinism contract across -shards values.
func runPattern(topoSpec, pattern, pgk, direction string, shards, rounds, window, msgSize int,
	seed uint64, faultsName string, faultsSpan float64, manifestOut, metricsOut, metricsProm string) {
	p, g, k, err := mpibench.ParseShape(pgk)
	if err != nil {
		fatal(err)
	}
	dir, err := mpibench.ParseDirection(direction)
	if err != nil {
		fatal(err)
	}
	rep, err := experiments.PatternRun(experiments.PatternRunSpec{
		Topo:      topoSpec,
		Pattern:   pattern,
		P:         p,
		G:         g,
		K:         k,
		Direction: dir,
		Rounds:    rounds,
		Window:    window,
		Size:      msgSize,
		Seed:      seed,
		Workers:   shards,
		Faults:    topologyFaults(topoSpec, faultsName, seed, faultsSpan),
	})
	if err != nil {
		fatal(err)
	}
	report(rep, manifestOut, metricsOut, metricsProm)
}

// topologyFaults builds the named fault preset over the nodes and
// segments of a topology spec and prints its rules; an empty name is a
// healthy run.
func topologyFaults(topoSpec, name string, seed uint64, span float64) *faults.Schedule {
	if name == "" {
		return nil
	}
	topo, nodes, err := cluster.ParseTopology(topoSpec)
	if err != nil {
		fatal(err)
	}
	s, err := cluster.Scenario(name, seed, cluster.ScenarioEnv{
		Nodes: nodes, Segments: topo.NumSegments(), Span: span,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fault scenario %s over [0, %.2fs):\n", s.Name, span)
	for _, r := range s.Rules {
		fmt.Printf("  %s\n", r.String())
	}
	return s
}

// report prints a sharded run's transcript and writes its manifest and
// instrument snapshot to the files named, skipping empty names.
func report(rep *experiments.LargeRunReport, manifestOut, metricsOut, metricsProm string) {
	fmt.Print(rep.Transcript)
	if manifestOut != "" {
		data, err := json.MarshalIndent(rep.Manifest, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(manifestOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", manifestOut)
	}
	writeSnapshot(rep.Metrics, metricsOut, metricsProm)
}

// writeSnapshot writes an instrument snapshot as JSON and as Prometheus
// text to the files named, skipping empty names.
func writeSnapshot(snap metrics.Snapshot, jsonOut, promOut string) {
	if jsonOut != "" {
		if err := snap.SaveJSON(jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	if promOut != "" {
		if err := snap.SavePrometheus(promOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", promOut)
	}
}

// runPatternStudy runs the predicted-vs-simulated pattern makespan
// study over the default cells (Rail/Fan/Dense on a fat tree and a
// dragonfly) and prints one row per cell.
func runPatternStudy(calRounds, valRounds, predictReps int, seed uint64, workers int) {
	rows, err := experiments.PatternStudy(experiments.PatternStudyParams{
		CalRounds: calRounds,
		ValRounds: valRounds,
		Reps:      predictReps,
		Seed:      seed,
		Workers:   workers,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-18s %9s %26s %26s %7s\n",
		"topology", "pattern", "MB/s", "predicted ms", "simulated ms", "agree")
	agreeAll := true
	for _, row := range rows {
		fmt.Printf("%-22s %-18s %9.1f %8.2f [%7.2f, %7.2f] %8.2f [%7.2f, %7.2f] %7v\n",
			row.Topo, fmt.Sprintf("%s:p%dg%dk%d", row.Pattern, row.P, row.G, row.K),
			row.Bandwidth/1e6,
			row.Predicted.Point*1e3, row.Predicted.Lo*1e3, row.Predicted.Hi*1e3,
			row.Simulated.Point*1e3, row.Simulated.Lo*1e3, row.Simulated.Hi*1e3,
			row.Agree)
		agreeAll = agreeAll && row.Agree
	}
	if !agreeAll {
		fatal(fmt.Errorf("pattern study: predicted and simulated makespans disagree"))
	}
	fmt.Printf("all %d cells: predicted and simulated makespan intervals overlap\n", len(rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "run:", err)
	os.Exit(1)
}
