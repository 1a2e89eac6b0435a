package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mpibench"
	"repro/internal/sim"
)

// fabric drives the sharded network: CommBench Rail and Dense matrices
// over the 2048-node fat tree, each pair streaming windowed rounds.
type fabric struct {
	o options
}

const fabricTopo = "fattree:2048x32x8"

// fabricCalls is one round: a Rail matrix across all 64 leaves and two
// Dense matrices across 16 leaves, all directions. Three calls, so the
// median call falls inside the Dense class and p95 inside Rail.
var fabricCalls = []experiments.PatternRunSpec{
	{Topo: fabricTopo, Pattern: mpibench.PatternRail, P: 32, G: 64, K: 2,
		Direction: mpibench.Omnidirectional, Rounds: 2, Window: 2, Size: 8192},
	{Topo: fabricTopo, Pattern: mpibench.PatternDense, P: 32, G: 16, K: 4,
		Direction: mpibench.Omnidirectional, Rounds: 2, Window: 2, Size: 8192},
	{Topo: fabricTopo, Pattern: mpibench.PatternDense, P: 32, G: 16, K: 4,
		Direction: mpibench.Omnidirectional, Rounds: 2, Window: 2, Size: 8192},
}

func newFabric(o options) bench { return &fabric{o: o} }

// setup runs one warm-up Dense call of a single round, so the measured
// phase starts with a grown heap.
func (f *fabric) setup(tr *tracer) error {
	spec := fabricCalls[1]
	spec.Rounds = 1
	spec.Seed = sim.SubSeed(f.o.seed, "fabric:warmup")
	spec.Workers = 1
	id := tr.begin("experiments.PatternRun", 0, -1)
	rep, err := experiments.PatternRun(spec)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	_, err = checkPattern(spec, rep)
	return err
}

// expectedDeliveries is what a pattern run must deliver: every pair
// sends count × window data messages per round and gets one
// acknowledgement per round.
func expectedDeliveries(spec experiments.PatternRunSpec) (data, acks uint64, err error) {
	m, err := mpibench.BuildPattern(spec.Pattern, spec.P, spec.G, spec.K, spec.Direction)
	if err != nil {
		return 0, 0, err
	}
	rounds := uint64(spec.Rounds)
	data = uint64(m.MessagesPerWindow()*spec.Window) * rounds
	acks = uint64(len(m.Pairs)) * rounds
	return data, acks, nil
}

// checkPattern compares a report's per-leaf transcript and counters
// with the matrix and returns the messages delivered.
func checkPattern(spec experiments.PatternRunSpec, rep *experiments.LargeRunReport) (uint64, error) {
	wantData, wantAcks, err := expectedDeliveries(spec)
	if err != nil {
		return 0, err
	}
	var data, acks uint64
	for _, line := range strings.Split(rep.Transcript, "\n") {
		if !strings.HasPrefix(line, "leaf") {
			continue
		}
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok || (k != "data" && k != "acks") {
				continue
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("transcript field %q: %v", field, err)
			}
			if k == "data" {
				data += n
			} else {
				acks += n
			}
		}
	}
	if data != wantData || acks != wantAcks {
		return 0, fmt.Errorf("%s: delivered %d data and %d acks, want %d and %d",
			rep.Manifest.Pattern, data, acks, wantData, wantAcks)
	}
	if rep.Counters.Transfers != data+acks {
		return 0, fmt.Errorf("%s: %d transfers for %d deliveries", rep.Manifest.Pattern, rep.Counters.Transfers, data+acks)
	}
	if rep.Makespan <= 0 {
		return 0, fmt.Errorf("%s: makespan %v", rep.Manifest.Pattern, rep.Makespan)
	}
	return data + acks, nil
}

func (f *fabric) measure(lim limit, tr *tracer) (*pass, error) {
	p := newPass(lim)
	d := newDigest()
	start, cpu0 := time.Now(), cpuNow()
	rounds := 0
	for r := 0; lim.more(r); r++ {
		round := tr.begin("fabric.round", 0, int64(r))
		var done uint64
		for i, spec := range fabricCalls {
			// Each call leaves a 2048-node network behind; collecting it
			// first (outside the timed call) keeps the peak resident set
			// a property of one call, not of collector timing.
			runtime.GC()
			spec.Seed = sim.SubSeed(f.o.seed, fmt.Sprintf("fabric:r%d:c%d", r, i))
			spec.Workers = 1
			data, acks, err := expectedDeliveries(spec)
			if err != nil {
				return nil, err
			}
			want := int64(data + acks)
			p.attempted += want
			id := tr.begin("experiments.PatternRun", round, int64(r*len(fabricCalls)+i))
			t0 := p.startCall()
			rep, err := experiments.PatternRun(spec)
			p.stopCall(t0, r)
			if err != nil {
				tr.end(id, nil)
				p.fail(want, "round %d call %d: %v", r, i, err)
				continue
			}
			var cnt counts
			cnt.addSnapshot(rep.Metrics)
			tr.end(id, map[string]float64{"events": float64(cnt.Events), "windows": float64(rep.Windows)})
			n, err := checkPattern(spec, rep)
			if err != nil {
				p.fail(want, "round %d call %d: %v", r, i, err)
				continue
			}
			done += n
			p.counts.add(cnt)
			p.counts.Windows += rep.Windows
			if r == 0 || lim.fixed() {
				d.str(rep.Transcript)
				d.num(uint64(rep.Makespan))
			}
		}
		tr.end(round, nil)
		p.roundOps = append(p.roundOps, float64(done))
		rounds++
	}
	p.wall, p.cpu = time.Since(start), cpuNow()-cpu0
	p.digest, p.digestOf = d.sum(), digestScope(lim, rounds, "rounds")
	return p, nil
}

// afterTrace times the round's Rail call at one worker and at one
// worker per CPU, with as many Ps: sim.shard_speedup, info only.
// Outputs are identical by the determinism contract, so only the wall
// time differs.
func (f *fabric) afterTrace(tr *tracer, p *pass) error {
	timeAt := func(workers int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		spec := fabricCalls[0]
		spec.Seed = sim.SubSeed(f.o.seed, "fabric:speedup")
		spec.Workers = workers
		id := tr.begin("experiments.PatternRun", 0, int64(-100-workers))
		t0 := time.Now()
		rep, err := experiments.PatternRun(spec)
		wall := time.Since(t0).Seconds()
		tr.end(id, nil)
		if err != nil {
			return 0, err
		}
		_, err = checkPattern(spec, rep)
		return wall, err
	}
	one, err := timeAt(1)
	if err != nil {
		return err
	}
	all, err := timeAt(runtime.NumCPU())
	if err != nil {
		return err
	}
	p.figures["sim.shard_speedup"] = one / all
	return nil
}

func (f *fabric) close() {}
