package cluster

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Scenario presets: named fault schedules for the simulated cluster.
// Each preset samples its windows from a sim.SubSeed substream keyed by
// the scenario name, so the same (seed, name, env) triple always yields
// the same schedule — perturbed sweeps stay bit-reproducible regardless
// of worker count or evaluation order.

// ScenarioEnv is the cluster shape a scenario's random targets are
// drawn against: how many nodes the job uses, how many inter-switch
// segments the machine has (the flat daisy-chain's stacking segments,
// or a hierarchical topology's links), and the simulated span in
// seconds the windows should cover.
type ScenarioEnv struct {
	Nodes    int
	Segments int
	Span     float64
}

// scenarioBuilders maps preset names to their constructors. Node and
// segment targets are drawn from the same substream as the windows, so
// a preset is a single deterministic function of (seed, env).
var scenarioBuilders = map[string]func(rng *sim.RNG, env ScenarioEnv) []faults.Rule{
	// degraded-uplink: one node's NIC renegotiates to a fraction of its
	// nominal rate for most of the run — the classic half-duplex or
	// failing-transceiver uplink.
	"degraded-uplink": func(rng *sim.RNG, env ScenarioEnv) []faults.Rule {
		node := rng.Intn(env.Nodes)
		w := faults.Windows(rng, 1, env.Span, 0.6*env.Span, 0.9*env.Span)
		return []faults.Rule{{
			Kind: faults.LinkDegrade, Start: w[0][0], End: w[0][1],
			Target: node, Severity: 0.1,
		}}
	},
	// noisy-node: OS-noise bursts triple one node's host CPU costs in
	// several short windows (daemon wakeups, page-cache flushes).
	"noisy-node": func(rng *sim.RNG, env ScenarioEnv) []faults.Rule {
		node := rng.Intn(env.Nodes)
		var rules []faults.Rule
		for _, w := range faults.Windows(rng, 4, env.Span, 0.05*env.Span, 0.15*env.Span) {
			rules = append(rules, faults.Rule{
				Kind: faults.NodeSlow, Start: w[0], End: w[1],
				Target: node, Severity: 3,
			})
		}
		return rules
	},
	// flaky-nic: one node's NIC goes dark in short outage windows; every
	// transfer touching it rides the TCP retransmission path.
	"flaky-nic": func(rng *sim.RNG, env ScenarioEnv) []faults.Rule {
		node := rng.Intn(env.Nodes)
		var rules []faults.Rule
		for _, w := range faults.Windows(rng, 3, env.Span, 0.02*env.Span, 0.08*env.Span) {
			rules = append(rules, faults.Rule{
				Kind: faults.NICOutage, Start: w[0], End: w[1], Target: node,
			})
		}
		return rules
	},
	// lossy-links: a cluster-wide elevated drop probability window — the
	// shape of a congested or misconfigured switch dropping frames.
	"lossy-links": func(rng *sim.RNG, env ScenarioEnv) []faults.Rule {
		w := faults.Windows(rng, 1, env.Span, 0.3*env.Span, 0.6*env.Span)
		return []faults.Rule{{
			Kind: faults.DropBoost, Start: w[0][0], End: w[0][1],
			Target: faults.AllTargets, Severity: 0.02,
		}}
	},
	// congested-backplane: one inter-switch segment loses most of its
	// capacity (failed matrix-card lane on the flat stack, a degraded
	// uplink or global link on a hierarchical fabric), squeezing
	// cross-switch traffic. The segment is drawn from the machine's
	// actual segment list, so the preset lands on a real target on any
	// topology instead of always hitting flat segment 0.
	"congested-backplane": func(rng *sim.RNG, env ScenarioEnv) []faults.Rule {
		seg := 0
		if env.Segments > 0 {
			seg = rng.Intn(env.Segments)
		}
		w := faults.Windows(rng, 1, env.Span, 0.5*env.Span, 0.8*env.Span)
		return []faults.Rule{{
			Kind: faults.BackplaneDegrade, Start: w[0][0], End: w[0][1],
			Target: seg, Severity: 0.25,
		}}
	},
}

// ScenarioNames lists the available fault-scenario presets in sorted
// order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioBuilders))
	for n := range scenarioBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scenario builds the named preset's fault schedule for the given
// cluster shape, sampling windows and targets from the substream
// sim.SubSeed(seed, "faults/"+name) over a run of env.Span simulated
// seconds. Unknown names return an error listing the presets, and the
// schedule is checked with ValidateFor against the shape, so a preset
// can never hand back a rule that binds nothing.
func Scenario(name string, seed uint64, env ScenarioEnv) (*faults.Schedule, error) {
	build, ok := scenarioBuilders[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown fault scenario %q (have %v)", name, ScenarioNames())
	}
	if env.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: scenario %q needs nodes > 0, got %d", name, env.Nodes)
	}
	if env.Segments < 0 {
		return nil, fmt.Errorf("cluster: scenario %q needs segments >= 0, got %d", name, env.Segments)
	}
	// Windows are sim.Times: a NaN or infinite span, or one whose
	// nanoseconds reach sim.Forever, would put every window where no run
	// reaches it, and the perturbed run would be silently healthy.
	if !(env.Span > 0) || env.Span*float64(sim.Second) >= float64(sim.Forever) {
		return nil, fmt.Errorf("cluster: scenario %q needs a span in (0, %v) s, got %v", name, sim.Forever.Seconds(), env.Span)
	}
	rng := sim.NewCellRNG(seed, "faults/"+name)
	s := &faults.Schedule{Name: name, Rules: build(rng, env)}
	if err := s.ValidateFor(env.Nodes, env.Segments); err != nil {
		return nil, fmt.Errorf("cluster: scenario %q: %w", name, err)
	}
	return s, nil
}
