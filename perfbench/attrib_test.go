package main

import (
	"math"
	"testing"
)

// syntheticProbe builds loop samples whose host time is exactly the
// given self costs times the work each loop did, the way a real loop's
// time includes the layers below it.
func syntheticProbe(want unitCosts) probeRaw {
	loop := func(units, self float64, lower counts) loopSample {
		ns := units*self +
			float64(lower.Events)*want.SimEvent +
			float64(lower.Quantiles)*want.StatsQuantile
		return loopSample{Units: units, NS: ns, Lower: lower}
	}
	var r probeRaw
	r.Sim = loop(1000, want.SimEvent, counts{})
	r.NetSame = loop(100, want.NetSame, counts{Events: 500})
	r.NetCross = loop(100, want.NetCross, counts{Events: 1100})
	r.MPI = loop(200, want.MPIMessage, counts{Events: 1600, Transfers: 200})
	r.MPI.NS += 200 * want.NetSame // its transfers are same-switch ones
	r.Add = loop(1000, want.StatsAdd, counts{})
	r.Sample = loop(1000, want.StatsSample, counts{})
	r.Quantile = loop(1000, want.StatsQuantile, counts{})
	r.PEVPM = loop(300, want.PEVPMDraw, counts{Quantiles: 300})
	r.Lint = loop(10, want.LintCall, counts{})
	r.Service = loop(10, want.ServiceHit, counts{})
	return r
}

var knownCosts = unitCosts{
	SimEvent: 30, NetSame: 400, NetCross: 900, NetTransfer: 650, MPIMessage: 1500,
	StatsAdd: 12, StatsSample: 45, StatsQuantile: 15, PEVPMDraw: 700, LintCall: 20000, ServiceHit: 9000,
}

func TestDeriveCostsRecoversSelfCosts(t *testing.T) {
	got := deriveCosts(syntheticProbe(knownCosts))
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"sim", got.SimEvent, knownCosts.SimEvent},
		{"netsim same", got.NetSame, knownCosts.NetSame},
		{"netsim cross", got.NetCross, knownCosts.NetCross},
		{"netsim mean", got.NetTransfer, knownCosts.NetTransfer},
		{"mpi", got.MPIMessage, knownCosts.MPIMessage},
		{"stats add", got.StatsAdd, knownCosts.StatsAdd},
		{"stats quantile", got.StatsQuantile, knownCosts.StatsQuantile},
		{"pevpm", got.PEVPMDraw, knownCosts.PEVPMDraw},
		{"mpilint", got.LintCall, knownCosts.LintCall},
		{"service", got.ServiceHit, knownCosts.ServiceHit},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s: self cost %v ns, want %v", c.name, c.got, c.want)
		}
	}
}

// TestAttributionCountsNothingTwice prices a pass that is exactly the
// MPI probe loop repeated: every nanosecond must be explained once, so
// the residual is zero. Pricing the loop's events or transfers at a
// cost that already includes them would push it negative.
func TestAttributionCountsNothingTwice(t *testing.T) {
	raw := syntheticProbe(knownCosts)
	costs := deriveCosts(raw)
	costs.NetTransfer = costs.NetSame // the pass's transfers are same-switch
	const reps = 50
	c := counts{Events: reps * raw.MPI.Lower.Events, Transfers: reps * raw.MPI.Lower.Transfers, Eager: reps * uint64(raw.MPI.Units)}
	wall := reps * raw.MPI.NS / 1e9
	a := attribute("mpi-loop", c, costs, gcStats{}, wall, wall)
	if math.Abs(a.ResidualS) > 1e-12 || math.Abs(a.ResidualPct) > 1e-9 {
		t.Errorf("residual %v s (%v%%), want 0; rows %+v", a.ResidualS, a.ResidualPct, a.Rows)
	}
	if math.Abs(a.AttributedS-wall) > 1e-12 {
		t.Errorf("attributed %v s of %v s", a.AttributedS, wall)
	}
}

func TestAttributionSplitsCPUTime(t *testing.T) {
	costs := unitCosts{SimEvent: 100, PEVPMDraw: 1000}
	// 2 CPU-seconds, 1.5 of them inside calls, 0.2 of them collecting
	// garbage over 4 cycles.
	a := attribute("w", counts{Events: 5e6, Draws: 4e5}, costs, gcStats{cpuS: 0.2, cycles: 4}, 2, 1.5)
	if a.CPUS != 2 || a.OutsideS != 0.5 {
		t.Fatalf("CPU %v s, outside calls %v s; want 2 and 0.5", a.CPUS, a.OutsideS)
	}
	if math.Abs(a.AttributedS-1.1) > 1e-12 {
		t.Errorf("attributed %v s, want 0.5 + 0.4 + 0.2", a.AttributedS)
	}
	if math.Abs(a.ResidualS-0.4) > 1e-12 || math.Abs(a.ResidualPct-20) > 1e-9 {
		t.Errorf("residual %v s (%v%%), want 0.4 s (20%%)", a.ResidualS, a.ResidualPct)
	}
}
