package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestScenarioPresetsValidAndDeterministic(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 5 {
		t.Fatalf("want >= 5 presets, have %v", names)
	}
	env := ScenarioEnv{Nodes: 16, Segments: 4, Span: 2.0}
	for _, name := range names {
		a, err := Scenario(name, 7, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Empty() {
			t.Errorf("%s: empty schedule", name)
		}
		if err := a.ValidateFor(env.Nodes, env.Segments); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		b, err := Scenario(name, 7, env)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedule:\n%v\n%v", name, a.Rules, b.Rules)
		}
		c, err := Scenario(name, 8, env)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Rules, c.Rules) {
			t.Errorf("%s: different seeds produced identical rules", name)
		}
		for _, r := range a.Rules {
			limit := env.Nodes
			if r.Kind == faults.BackplaneDegrade {
				limit = env.Segments
			}
			if r.Target >= limit {
				t.Errorf("%s: target %d out of range (%d)", name, r.Target, limit)
			}
		}
	}
}

func TestScenarioUnknownName(t *testing.T) {
	if _, err := Scenario("no-such-thing", 1, ScenarioEnv{Nodes: 4, Segments: 1, Span: 1.0}); err == nil {
		t.Fatal("want error for unknown scenario")
	}
	if _, err := Scenario("noisy-node", 1, ScenarioEnv{Nodes: 0, Segments: 1, Span: 1.0}); err == nil {
		t.Fatal("want error for zero nodes")
	}
	if _, err := Scenario("noisy-node", 1, ScenarioEnv{Nodes: 4, Segments: 1, Span: 0}); err == nil {
		t.Fatal("want error for zero span")
	}
	if _, err := Scenario("noisy-node", 1, ScenarioEnv{Nodes: 4, Segments: -1, Span: 1.0}); err == nil {
		t.Fatal("want error for negative segments")
	}
}

func TestScenarioKindsCovered(t *testing.T) {
	// Between them the presets must exercise every fault kind.
	seen := map[faults.Kind]bool{}
	for _, name := range ScenarioNames() {
		s, err := Scenario(name, 3, ScenarioEnv{Nodes: 8, Segments: 2, Span: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Rules {
			seen[r.Kind] = true
		}
	}
	for _, k := range []faults.Kind{
		faults.LinkDegrade, faults.DropBoost, faults.NodeSlow,
		faults.NICOutage, faults.BackplaneDegrade,
	} {
		if !seen[k] {
			t.Errorf("no preset exercises %v", k)
		}
	}
}

func TestScenarioSegmentRetargeting(t *testing.T) {
	// On a machine with many segments the congested-backplane preset
	// must be able to land beyond flat segment 0, and every draw must
	// stay in range. Before segment retargeting the preset hardcoded
	// segment 0 regardless of the machine's shape.
	seenNonZero := false
	for seed := uint64(0); seed < 64; seed++ {
		s, err := Scenario("congested-backplane", seed, ScenarioEnv{Nodes: 64, Segments: 48, Span: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Rules {
			if r.Target < 0 || r.Target >= 48 {
				t.Fatalf("seed %d: segment %d out of range [0,48)", seed, r.Target)
			}
			if r.Target != 0 {
				seenNonZero = true
			}
		}
	}
	if !seenNonZero {
		t.Error("64 seeds never targeted a segment other than 0; preset is not retargeting")
	}

	// A rule that binds no segment must be rejected, not silently
	// ignored: congested-backplane on a single-switch machine (zero
	// inter-switch segments) has nothing to degrade.
	if _, err := Scenario("congested-backplane", 1, ScenarioEnv{Nodes: 8, Segments: 0, Span: 1.0}); err == nil {
		t.Fatal("want error for a backplane scenario on a machine with no segments")
	}
}

// TestScenarioRefusesUnusableSpan: a NaN or infinite span, or one whose
// nanoseconds reach sim.Forever, converted every window to the same
// far-negative time, which no run reaches, so the "perturbed" run was
// silently healthy. Every preset refuses such a span, and the largest
// span it accepts still puts its windows inside the run.
func TestScenarioRefusesUnusableSpan(t *testing.T) {
	largest := math.Nextafter(sim.Forever.Seconds(), 0)
	for _, name := range ScenarioNames() {
		for _, span := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), sim.Forever.Seconds(), 1e10} {
			if s, err := Scenario(name, 1, ScenarioEnv{Nodes: 8, Segments: 2, Span: span}); err == nil {
				t.Errorf("%s: span %v accepted: %v", name, span, s.Rules)
			}
		}
		s, err := Scenario(name, 1, ScenarioEnv{Nodes: 8, Segments: 2, Span: largest})
		if err != nil {
			t.Fatalf("%s: span %v: %v", name, largest, err)
		}
		for _, r := range s.Rules {
			if r.Start < 0 || r.End <= r.Start || r.End > sim.TimeFromSeconds(largest) {
				t.Errorf("%s: span %v: window [%v, %v) outside the run", name, largest, r.Start, r.End)
			}
		}
	}
}
