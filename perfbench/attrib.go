package main

import (
	"fmt"
	"io"
	"math"
	rtmetrics "runtime/metrics"
)

// attribRow is one layer's share of a pass: its counted work priced at
// its self unit cost.
type attribRow struct {
	Layer   string  `json:"layer"`
	Work    string  `json:"work"`
	Count   float64 `json:"count"`
	NSPer   float64 `json:"ns_per"`
	Seconds float64 `json:"seconds"`
}

// attribution splits a pass's process CPU time into layer rows, the
// benchmark's own time outside the calls, and a residual nobody's unit
// cost explains.
type attribution struct {
	Workload    string      `json:"workload"`
	CPUS        float64     `json:"cpu_s"`
	CallsS      float64     `json:"calls_s"` // CPU time spent inside calls
	Rows        []attribRow `json:"rows"`
	AttributedS float64     `json:"attributed_s"`
	OutsideS    float64     `json:"outside_s"`
	ResidualS   float64     `json:"residual_s"`
	ResidualPct float64     `json:"residual_pct"`
}

// gcStats is the Go runtime's cumulative collector work.
type gcStats struct {
	cpuS   float64 // the runtime's estimate of GC CPU time
	cycles uint64
}

func readGC() gcStats {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return gcStats{cpuS: s[0].Value.Float64(), cycles: s[1].Value.Uint64()}
}

func (g gcStats) since(o gcStats) gcStats {
	return gcStats{cpuS: g.cpuS - o.cpuS, cycles: g.cycles - o.cycles}
}

// attribute prices every count at its layer's self cost. Self costs
// exclude lower layers (deriveCosts), so the rows add without counting
// any work twice. The collector's CPU time is its own row, as the
// runtime measured it.
func attribute(workload string, c counts, u unitCosts, gc gcStats, cpuS, callsS float64) attribution {
	a := attribution{Workload: workload, CPUS: cpuS, CallsS: callsS}
	var gcPerCycle float64
	if gc.cycles > 0 {
		gcPerCycle = gc.cpuS * 1e9 / float64(gc.cycles)
	}
	for _, r := range []attribRow{
		{Layer: "sim", Work: "events", Count: float64(c.Events), NSPer: u.SimEvent},
		{Layer: "netsim", Work: "transfers", Count: float64(c.Transfers), NSPer: u.NetTransfer},
		{Layer: "mpi", Work: "messages", Count: float64(c.messages()), NSPer: u.MPIMessage},
		{Layer: "stats", Work: "Histogram.Add", Count: float64(c.Adds), NSPer: u.StatsAdd},
		{Layer: "stats", Work: "quantile inversions", Count: float64(c.Quantiles), NSPer: u.StatsQuantile},
		{Layer: "pevpm", Work: "draws", Count: float64(c.Draws), NSPer: u.PEVPMDraw},
		{Layer: "mpilint", Work: "Analyze calls", Count: float64(c.Lints), NSPer: u.LintCall},
		{Layer: "service", Work: "requests (cache-hit path)", Count: float64(c.Requests), NSPer: u.ServiceHit},
		{Layer: "runtime", Work: "GC cycles", Count: float64(gc.cycles), NSPer: gcPerCycle},
	} {
		r.Seconds = r.Count * r.NSPer / 1e9
		a.Rows = append(a.Rows, r)
		a.AttributedS += r.Seconds
	}
	a.OutsideS = math.Max(0, a.CPUS-callsS)
	a.ResidualS = a.CPUS - a.OutsideS - a.AttributedS
	if a.CPUS > 0 {
		a.ResidualPct = a.ResidualS / a.CPUS * 100
	}
	return a
}

// print writes the attribution table.
func (a attribution) print(w io.Writer) {
	fmt.Fprintf(w, "attribution %s: %.3f CPU-s (in calls %.3f s)\n", a.Workload, a.CPUS, a.CallsS)
	fmt.Fprintf(w, "  %-9s %-27s %14s %12s %10s %7s\n", "layer", "work", "count", "self ns/unit", "seconds", "share")
	share := func(s float64) float64 {
		if a.CPUS == 0 {
			return 0
		}
		return s / a.CPUS * 100
	}
	for _, r := range a.Rows {
		if r.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s %-27s %14.0f %12.1f %10.4f %6.1f%%\n", r.Layer, r.Work, r.Count, r.NSPer, r.Seconds, share(r.Seconds))
	}
	fmt.Fprintf(w, "  %-9s %-27s %14s %12s %10.4f %6.1f%%\n", "Σ", "attributed", "", "", a.AttributedS, share(a.AttributedS))
	fmt.Fprintf(w, "  %-9s %-27s %14s %12s %10.4f %6.1f%%\n", "outside", "benchmark outside calls", "", "", a.OutsideS, share(a.OutsideS))
	fmt.Fprintf(w, "  %-9s %-27s %14s %12s %10.4f %6.1f%%\n", "residual", "unexplained", "", "", a.ResidualS, a.ResidualPct)
}
