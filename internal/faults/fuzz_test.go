package faults_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/sim"
)

// A fuzzed rule is ruleBytes bytes: a kind (int8), a window's start and
// end (int64 nanoseconds), a target (int32) and a severity (float64
// bits), little-endian. A schedule is at most maxRules of them.
const (
	ruleBytes = 1 + 8 + 8 + 4 + 8
	maxRules  = 8
)

func encodeRules(rules []faults.Rule) []byte {
	var b []byte
	for _, r := range rules {
		b = append(b, byte(int8(r.Kind)))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.End))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Target)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Severity))
	}
	return b
}

func decodeRules(b []byte) []faults.Rule {
	var rules []faults.Rule
	for ; len(b) >= ruleBytes && len(rules) < maxRules; b = b[ruleBytes:] {
		rules = append(rules, faults.Rule{
			Kind:     faults.Kind(int8(b[0])),
			Start:    sim.Time(binary.LittleEndian.Uint64(b[1:])),
			End:      sim.Time(binary.LittleEndian.Uint64(b[9:])),
			Target:   int(int32(binary.LittleEndian.Uint32(b[17:]))),
			Severity: math.Float64frombits(binary.LittleEndian.Uint64(b[21:])),
		})
	}
	return rules
}

// FuzzSchedule holds fault-schedule validation to repeatable errors,
// and a schedule it accepts to queries inside their ranges: LinkFactor
// and StackFactor in [0.01, 1], DropBoost in [0, 1] and SlowFactor in
// [1, MaxSlowFactor], none of them NaN. The queries are asked at every
// window edge, at both ends of time, at each target a rule names and
// at one no rule names, which between them give every answer the
// schedule has. Its seeds are the five scenario presets' rules, every
// kind with a NaN or infinite severity, severities whose products
// overflow or underflow, and the same products with the node-slow ones
// at MaxSlowFactor.
func FuzzSchedule(f *testing.F) {
	for _, name := range cluster.ScenarioNames() {
		s, err := cluster.Scenario(name, 1, cluster.ScenarioEnv{Nodes: 16, Segments: 4, Span: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeRules(s.Rules), uint8(16), uint8(4))
	}
	second := sim.TimeFromSeconds(1)
	for _, k := range []faults.Kind{faults.LinkDegrade, faults.DropBoost, faults.NodeSlow, faults.NICOutage, faults.BackplaneDegrade} {
		for _, sev := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.Add(encodeRules([]faults.Rule{{Kind: k, End: second, Target: 0, Severity: sev}}), uint8(4), uint8(4))
		}
	}
	for _, slow := range [][2]float64{{1e308, 1e308}, {10, faults.MaxSlowFactor / 10}} {
		f.Add(encodeRules([]faults.Rule{
			{Kind: faults.NodeSlow, End: second, Target: faults.AllTargets, Severity: slow[0]},
			{Kind: faults.NodeSlow, Start: -second, End: sim.Forever, Target: 1, Severity: slow[1]},
			{Kind: faults.LinkDegrade, End: second, Target: 1, Severity: 1e-308},
			{Kind: faults.LinkDegrade, End: second, Target: 1, Severity: 1e-308},
			{Kind: faults.DropBoost, End: second, Target: 1, Severity: 1},
			{Kind: faults.DropBoost, End: second, Target: faults.AllTargets, Severity: math.SmallestNonzeroFloat64},
		}), uint8(2), uint8(0))
	}

	f.Fuzz(func(t *testing.T, data []byte, nodes, segments uint8) {
		s := &faults.Schedule{Name: "fuzz", Rules: decodeRules(data)}
		err := s.ValidateFor(int(nodes), int(segments))
		again := s.ValidateFor(int(nodes), int(segments))
		if (err == nil) != (again == nil) || err != nil && err.Error() != again.Error() {
			t.Fatalf("ValidateFor is not repeatable: %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		times := []sim.Time{math.MinInt64, 0, math.MaxInt64}
		targets := []int{0, math.MaxInt}
		for _, r := range s.Rules {
			times = append(times, r.Start-1, r.Start, r.End-1, r.End)
			targets = append(targets, r.Target)
		}
		for _, at := range times {
			for _, tg := range targets {
				if v := s.LinkFactor(tg, at); !(v >= 0.01 && v <= 1) {
					t.Fatalf("LinkFactor(%d, %v) = %v, want [0.01, 1]", tg, at, v)
				}
				if v := s.StackFactor(tg, at); !(v >= 0.01 && v <= 1) {
					t.Fatalf("StackFactor(%d, %v) = %v, want [0.01, 1]", tg, at, v)
				}
				if v := s.DropBoost(tg, at); !(v >= 0 && v <= 1) {
					t.Fatalf("DropBoost(%d, %v) = %v, want [0, 1]", tg, at, v)
				}
				if v := s.SlowFactor(tg, at); !(v >= 1 && v <= faults.MaxSlowFactor) {
					t.Fatalf("SlowFactor(%d, %v) = %v, want [1, MaxSlowFactor]", tg, at, v)
				}
			}
		}
	})
}
