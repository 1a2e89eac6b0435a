package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpibench"
	"repro/internal/mpilint"
	"repro/internal/netsim"
	"repro/internal/pevpm"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The layer probe times fixed-size loops over each layer's public entry
// points. A loop's CPU time includes the lower layers it calls; the
// work those did is counted from the snapshots and priced at the lower
// layers' own unit costs, so every figure is a self cost and nothing is
// counted twice (deriveCosts).

// loopSample is one probe loop: its units of work, CPU time, heap
// allocations and the lower-layer work it did.
type loopSample struct {
	Units  float64 `json:"units"`
	NS     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
	Lower  counts  `json:"lower"`
}

// probeRaw holds every loop's median sample.
type probeRaw struct {
	Sim, NetSame, NetCross, MPI loopSample
	Add, Sample, Quantile       loopSample
	PEVPM, Lint, Service        loopSample
}

// unitCosts are self costs: nanoseconds (and allocations) per unit of a
// layer's own work, excluding the layers below it.
type unitCosts struct {
	SimEvent      float64 `json:"sim_ns_per_event"`
	SimAllocs     float64 `json:"sim_allocs_per_event"`
	NetSame       float64 `json:"netsim_ns_per_same_switch_transfer"`
	NetCross      float64 `json:"netsim_ns_per_cross_switch_transfer"`
	NetTransfer   float64 `json:"netsim_ns_per_transfer"` // mean of the two
	NetAllocs     float64 `json:"netsim_allocs_per_transfer"`
	MPIMessage    float64 `json:"mpi_ns_per_message"`
	StatsAdd      float64 `json:"stats_ns_per_add"`
	StatsSample   float64 `json:"stats_ns_per_sample"`
	StatsQuantile float64 `json:"stats_ns_per_quantile"`
	PEVPMDraw     float64 `json:"pevpm_ns_per_draw"`
	LintCall      float64 `json:"mpilint_ns_per_call"`
	ServiceHit    float64 `json:"service_ns_per_hit"`
}

// deriveCosts turns loop samples into self unit costs, bottom layer
// first, each loop's lower-layer work priced at the self costs already
// derived for exactly that work.
func deriveCosts(r probeRaw) unitCosts {
	var c unitCosts
	per := func(s loopSample, lowerNS float64) float64 { return (s.NS - lowerNS) / s.Units }
	events := func(s loopSample) float64 { return float64(s.Lower.Events) * c.SimEvent }
	c.SimEvent = per(r.Sim, 0)
	c.SimAllocs = r.Sim.Allocs / r.Sim.Units
	c.NetSame = per(r.NetSame, events(r.NetSame))
	c.NetCross = per(r.NetCross, events(r.NetCross))
	c.NetTransfer = (c.NetSame + c.NetCross) / 2
	selfAllocs := func(s loopSample) float64 {
		return (s.Allocs - float64(s.Lower.Events)*c.SimAllocs) / s.Units
	}
	c.NetAllocs = (selfAllocs(r.NetSame) + selfAllocs(r.NetCross)) / 2
	// The MPI loop runs on one switch, so its transfers are priced at
	// the same-switch cost.
	c.MPIMessage = per(r.MPI, events(r.MPI)+float64(r.MPI.Lower.Transfers)*c.NetSame)
	c.StatsAdd = per(r.Add, 0)
	c.StatsSample = per(r.Sample, 0)
	c.StatsQuantile = per(r.Quantile, 0)
	c.PEVPMDraw = per(r.PEVPM, float64(r.PEVPM.Lower.Quantiles)*c.StatsQuantile)
	c.LintCall = per(r.Lint, 0)
	c.ServiceHit = per(r.Service, 0)
	return c
}

// probeReps is how many times each loop runs (odd, so the median is
// one of the runs).
const probeReps = 5

// measureLoop runs body probeReps times and returns the sample with
// the median CPU time. body returns the units and lower work it did.
func measureLoop(body func() (units float64, lower counts, err error)) (loopSample, error) {
	samples := make([]loopSample, 0, probeReps)
	var ms runtime.MemStats
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := cpuNow()
		units, lower, err := body()
		ns := float64((cpuNow() - start).Nanoseconds())
		if err != nil {
			return loopSample{}, err
		}
		runtime.ReadMemStats(&ms)
		samples = append(samples, loopSample{Units: units, NS: ns, Allocs: float64(ms.Mallocs - mallocs), Lower: lower})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].NS < samples[j].NS })
	return samples[len(samples)/2], nil
}

// probeStep is one timed loop of the probe.
type probeStep struct {
	name string
	dst  *loopSample
	body func() (float64, counts, error)
}

// runProbe times every layer's loops and derives the self unit costs.
func runProbe(tr *tracer) (probeRaw, unitCosts, error) {
	root := tr.begin("probe", 0, 0)
	defer tr.end(root, nil)
	cfg := cluster.Perseus()
	var r probeRaw
	pevpmBody, err := probePEVPM(cfg)
	if err != nil {
		return r, unitCosts{}, err
	}
	lintBody, err := probeLint()
	if err != nil {
		return r, unitCosts{}, err
	}
	svcBody, closeSvc, err := probeService()
	if err != nil {
		return r, unitCosts{}, err
	}
	defer closeSvc()
	steps := []probeStep{
		{"probe.sim", &r.Sim, probeSim},
		{"probe.netsim.same_switch", &r.NetSame, func() (float64, counts, error) { return probeNet(cfg, 1) }},
		{"probe.netsim.cross_switch", &r.NetCross, func() (float64, counts, error) { return probeNet(cfg, 60) }},
		{"probe.mpi", &r.MPI, func() (float64, counts, error) { return probeMPI(cfg) }},
		{"probe.stats.add", &r.Add, probeAdd},
		{"probe.stats.sample", &r.Sample, probeFrozen(false)},
		{"probe.stats.quantile", &r.Quantile, probeFrozen(true)},
		{"probe.pevpm", &r.PEVPM, pevpmBody},
		{"probe.mpilint", &r.Lint, lintBody},
		{"probe.service", &r.Service, svcBody},
	}
	for _, s := range steps {
		id := tr.begin(s.name, root, 0)
		sample, err := measureLoop(s.body)
		tr.end(id, map[string]float64{"units": sample.Units, "ns": sample.NS})
		if err != nil {
			return r, unitCosts{}, fmt.Errorf("%s: %w", s.name, err)
		}
		*s.dst = sample
	}
	return r, deriveCosts(r), nil
}

// probeSim: Engine.Schedule → Run of empty events.
func probeSim() (float64, counts, error) {
	const n = 1 << 20
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < n; i++ {
		e.Schedule(sim.Microsecond, fn)
		if i%64 == 63 {
			if _, err := e.Run(sim.Forever); err != nil {
				return 0, counts{}, err
			}
		}
	}
	_, err := e.Run(sim.Forever)
	return n, counts{}, err
}

// probeNet: Network.Transfer of 1 KB from node 0 to dst (1 shares its
// switch, 60 does not), each run to completion before the next starts.
func probeNet(cfg cluster.Config, dst int) (float64, counts, error) {
	const n = 16384
	e := sim.NewEngine(1)
	net := netsim.New(e, cfg)
	for i := 0; i < n; i++ {
		net.Transfer(0, dst, 1024, nil)
		if _, err := e.Run(sim.Forever); err != nil {
			return 0, counts{}, err
		}
	}
	var c counts
	c.addSnapshot(e.Metrics().Snapshot())
	return n, counts{Events: c.Events}, nil
}

// probeMPI: workloads.Execute of a two-rank 1 KB Sendrecv loop, both
// ranks on one switch.
func probeMPI(cfg cluster.Config) (float64, counts, error) {
	pl, err := cluster.NewBlockPlacement(&cfg, 2, 1)
	if err != nil {
		return 0, counts{}, err
	}
	res, err := workloads.Execute(cfg, pl, 1, func(c *mpi.Comm) {
		partner := 1 - c.Rank()
		for k := 0; k < 4000; k++ {
			c.Sendrecv(partner, 0, 1024, partner, 0)
		}
	})
	if err != nil {
		return 0, counts{}, err
	}
	var c counts
	c.addSnapshot(res.Metrics)
	return float64(c.messages()), counts{Events: c.Events, Transfers: c.Transfers}, nil
}

// probeValues are the observations the stats loops use: µs-scale
// timings like MPIBench records.
func probeValues() []float64 {
	r := sim.NewRNG(42)
	v := make([]float64, 4096)
	for i := range v {
		v[i] = 100e-6 + 20e-6*r.NormFloat64()
		if v[i] <= 0 {
			v[i] = 1e-6
		}
	}
	return v
}

// probeAdd: Histogram.Add.
func probeAdd() (float64, counts, error) {
	const n = 1 << 21
	v := probeValues()
	h := stats.NewHistogram(5e-6)
	for i := 0; i < n; i++ {
		h.Add(v[i&4095])
	}
	return n, counts{}, nil
}

// probeFrozen: Histogram.Quantile (quantile) or Sample on a frozen
// histogram of 10k observations.
func probeFrozen(quantile bool) func() (float64, counts, error) {
	return func() (float64, counts, error) {
		const n = 1 << 21
		v := probeValues()
		h := stats.NewHistogram(1e-6)
		for i := 0; i < 10000; i++ {
			h.Add(v[i&4095])
		}
		h.Freeze()
		r := sim.NewRNG(7)
		var sink float64
		for i := 0; i < n; i++ {
			if quantile {
				sink += h.Quantile(float64(i&1023) / 1024)
			} else {
				sink += h.Sample(r)
			}
		}
		if sink <= 0 {
			return 0, counts{}, fmt.Errorf("degenerate histogram draws")
		}
		return n, counts{}, nil
	}
}

// ringModel is the probe's fixed PEVPM model: every rank passes a 1 KB
// message to its right neighbour, iterations times.
func ringModel(iterations int) string {
	return fmt.Sprintf(`PEVPM Param bytes = 1024
PEVPM Loop iterations = %d
PEVPM {
PEVPM   Serial time = 0.0002
PEVPM   Message type = MPI_Isend
PEVPM   &       size = bytes
PEVPM   &       from = procnum
PEVPM   &       to = (procnum + 1) %% numprocs
PEVPM   Message type = MPI_Recv
PEVPM   &       size = bytes
PEVPM   &       from = (procnum + numprocs - 1) %% numprocs
PEVPM   &       to = procnum
PEVPM }
`, iterations)
}

// probePEVPM: pevpm.Evaluate of the ring model at 8 processes over a
// database with one contention level and the model's exact size, so
// every draw inverts exactly one quantile function.
func probePEVPM(cfg cluster.Config) (func() (float64, counts, error), error) {
	pl, err := cluster.NewBlockPlacement(&cfg, 8, 1)
	if err != nil {
		return nil, err
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: []int{1024}, Repetitions: 40, WarmUp: 5, SyncProbes: 8, Seed: 1,
	}, []cluster.Placement{pl})
	if err != nil {
		return nil, err
	}
	db, err := pevpm.NewEmpiricalDB(set, mpibench.OpSend, cfg)
	if err != nil {
		return nil, err
	}
	prog, err := pevpm.Parse(ringModel(400))
	if err != nil {
		return nil, err
	}
	return func() (float64, counts, error) {
		var c counts
		for rep := 0; rep < 4; rep++ {
			qc := newQuantileCounter(db, []int{1024})
			out, err := pevpm.Evaluate(prog, pevpm.Options{Procs: 8, DB: qc, Seed: uint64(rep + 1)})
			if err != nil {
				return 0, counts{}, err
			}
			c.addSnapshot(out.Metrics)
			c.Quantiles += qc.n
		}
		if c.Quantiles != c.Draws {
			return 0, counts{}, fmt.Errorf("probe model drew %d times but inverted %d quantiles", c.Draws, c.Quantiles)
		}
		return float64(c.Draws), counts{Quantiles: c.Quantiles}, nil
	}, nil
}

// probeLint: mpilint.Analyze of the ring model at 16 processes.
func probeLint() (func() (float64, counts, error), error) {
	prog, err := pevpm.Parse(ringModel(50))
	if err != nil {
		return nil, err
	}
	return func() (float64, counts, error) {
		const n = 200
		for i := 0; i < n; i++ {
			fs, err := mpilint.Analyze(prog, mpilint.Options{Procs: 16})
			if err != nil {
				return 0, counts{}, err
			}
			if len(fs) != 0 {
				return 0, counts{}, fmt.Errorf("ring model has %d lint findings", len(fs))
			}
		}
		return n, counts{}, nil
	}, nil
}

// probeService: Service.HandleRequest answered from the response cache
// (decode, resolve, canonical hash, cache lookup), no HTTP.
func probeService() (func() (float64, counts, error), func(), error) {
	svc := service.New(service.Config{Workers: 1})
	raw, err := json.Marshal(service.Request{
		Model: ringModel(2), Procs: 4, Seed: 1, Runs: 2,
		Bench: service.BenchSpec{Op: string(mpibench.OpSend), Sizes: []int{1024},
			Placements: []string{"4x1"}, Repetitions: 6, WarmUp: 2, SyncProbes: 4, Seed: 1},
	})
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	if res := svc.HandleRequest(context.Background(), raw); res.Status != 200 {
		svc.Close()
		return nil, nil, fmt.Errorf("priming request: status %d: %s", res.Status, res.Body)
	}
	body := func() (float64, counts, error) {
		const n = 4000
		for i := 0; i < n; i++ {
			if res := svc.HandleRequest(context.Background(), raw); res.Cache != "hit" {
				return 0, counts{}, fmt.Errorf("probe request %d: cache %q, want hit", i, res.Cache)
			}
		}
		return n, counts{}, nil
	}
	return body, svc.Close, nil
}
