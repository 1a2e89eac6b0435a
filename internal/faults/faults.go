// Package faults perturbs the simulated cluster through deterministic,
// time-windowed fault schedules: link degradation, elevated drop
// probability, node slowdown (OS-noise bursts), NIC outage windows and
// backplane capacity reduction. The paper's central observation is that
// MPI performance on commodity clusters is dominated by *variability* —
// contention, buffer overflow and retransmission-timeout outliers in the
// distribution tails — and a simulator that only ever exercises the
// healthy configuration cannot study it. A Schedule turns the healthy
// Perseus model into a degraded one without touching any model code.
//
// Determinism: a Schedule is plain data, generated up front from
// sim.SubSeed substreams (see internal/cluster's scenario presets) and
// read-only while a simulation runs. The same (seed, scenario) pair
// always yields the same windows, so perturbed experiment sweeps stay
// bit-reproducible at any worker count.
package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind classifies a fault rule.
type Kind int

// Fault kinds. Severity's meaning depends on the kind; see Rule.
const (
	// LinkDegrade multiplies the target node's NIC bandwidth by
	// Severity (0 < Severity < 1): a renegotiated half-duplex link, a
	// failing transceiver, a rate-limited port.
	LinkDegrade Kind = iota
	// DropBoost adds Severity (0 < Severity <= 1) to the drop
	// probability of messages delivered to the target node, on top of
	// the congestion-driven drop model.
	DropBoost
	// NodeSlow multiplies the target node's host CPU costs (MPI call
	// overheads and compute segments) by Severity (> 1): OS noise,
	// daemon interference, thermal throttling.
	NodeSlow
	// NICOutage takes the target node's NIC down entirely: every
	// transfer attempt touching the node during the window is lost and
	// retries on the TCP timeout path.
	NICOutage
	// BackplaneDegrade multiplies the capacity of the target stacking
	// segment by Severity (0 < Severity < 1): a failed matrix card lane
	// or a misbehaving stack link.
	BackplaneDegrade
)

var kindNames = map[Kind]string{
	LinkDegrade:      "link-degrade",
	DropBoost:        "drop-boost",
	NodeSlow:         "node-slow",
	NICOutage:        "nic-outage",
	BackplaneDegrade: "backplane-degrade",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllTargets selects every node (or every backplane segment) instead of
// a single one.
const AllTargets = -1

// MaxSlowFactor is the most a schedule may slow one node: the largest
// product of the NodeSlow severities active on a node at one time, and
// so the largest SlowFactor. The scenario presets slow a node 3× in
// windows that may overlap. internal/mpi multiplies host costs and
// compute segments by the factor before converting them to a
// sim.Duration, which an unbounded product (two overlapping 1e308
// rules make +Inf) would overflow.
const MaxSlowFactor = 1000

// Rule is one time-windowed perturbation: during [Start, End) the fault
// applies to Target (a node index, or a backplane-segment index for
// BackplaneDegrade; AllTargets hits everything).
type Rule struct {
	Kind     Kind
	Start    sim.Time // window start (inclusive)
	End      sim.Time // window end (exclusive)
	Target   int
	Severity float64
}

// active reports whether the rule applies at time t.
func (r Rule) active(t sim.Time) bool { return t >= r.Start && t < r.End }

// matches reports whether the rule applies to the given target index.
func (r Rule) matches(target int) bool {
	return r.Target == AllTargets || r.Target == target
}

// String renders the rule compactly (used for trace annotations).
func (r Rule) String() string {
	return fmt.Sprintf("%s target=%s sev=%.2f [%v,%v)", r.Kind, targetName(r.Target), r.Severity, r.Start, r.End)
}

// targetName renders a rule target: a node or segment index, or "all".
func targetName(target int) string {
	if target == AllTargets {
		return "all"
	}
	return fmt.Sprintf("%d", target)
}

// Validate reports the first inconsistency in the rule.
func (r Rule) Validate() error {
	if r.End <= r.Start {
		return fmt.Errorf("faults: %s window [%v,%v) is empty", r.Kind, r.Start, r.End)
	}
	if r.Target < AllTargets {
		return fmt.Errorf("faults: %s target %d invalid", r.Kind, r.Target)
	}
	// Every range check below is false for NaN, and a factor of NaN or
	// ±Inf would reach the network's arithmetic through the queries.
	if math.IsNaN(r.Severity) || math.IsInf(r.Severity, 0) {
		return fmt.Errorf("faults: %s severity %v is not finite", r.Kind, r.Severity)
	}
	switch r.Kind {
	case LinkDegrade, BackplaneDegrade:
		if r.Severity <= 0 || r.Severity >= 1 {
			return fmt.Errorf("faults: %s severity %v outside (0,1)", r.Kind, r.Severity)
		}
	case DropBoost:
		if r.Severity <= 0 || r.Severity > 1 {
			return fmt.Errorf("faults: %s severity %v outside (0,1]", r.Kind, r.Severity)
		}
	case NodeSlow:
		if r.Severity <= 1 {
			return fmt.Errorf("faults: %s severity %v must exceed 1", r.Kind, r.Severity)
		}
	case NICOutage:
		// Severity is ignored; any value is fine.
	default:
		return fmt.Errorf("faults: unknown kind %v", r.Kind)
	}
	return nil
}

// Schedule is a named set of fault rules. The zero value (and nil) is
// the healthy cluster: every query returns the neutral answer and the
// network model draws no extra randomness, so an empty schedule is
// bit-identical to no schedule at all.
type Schedule struct {
	Name  string
	Rules []Rule
}

// Empty reports whether the schedule perturbs anything.
func (s *Schedule) Empty() bool { return s == nil || len(s.Rules) == 0 }

// Validate checks every rule, then that no node is slowed more than
// MaxSlowFactor at any time.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, r := range s.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	// Every NodeSlow severity exceeds 1, so a node's SlowFactor only
	// grows where a window opens: it peaks at some rule's start, on a
	// node a NodeSlow rule names or on one only AllTargets rules reach.
	for i, r := range s.Rules {
		if r.Kind != NodeSlow {
			continue
		}
		for _, q := range s.Rules {
			if q.Kind != NodeSlow {
				continue
			}
			if f := s.SlowFactor(q.Target, r.Start); f > MaxSlowFactor {
				return fmt.Errorf("rule %d: %s severities active at its start multiply to %v on target=%s, above MaxSlowFactor %v",
					i, NodeSlow, f, targetName(q.Target), MaxSlowFactor)
			}
		}
	}
	return nil
}

// ValidateFor checks the schedule against a concrete cluster shape:
// beyond the per-rule checks, every node-targeted rule must bind at
// least one of the cluster's nodes and every BackplaneDegrade rule at
// least one inter-switch segment. A rule whose target does not exist
// would otherwise be a silently-unmatched window — a perturbation that
// perturbs nothing and quietly turns a degraded experiment into a
// healthy one.
func (s *Schedule) ValidateFor(nodes, segments int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	for i, r := range s.Rules {
		have, what := nodes, "node"
		if r.Kind == BackplaneDegrade {
			have, what = segments, "backplane segment"
		}
		if r.Target == AllTargets {
			if have == 0 {
				return fmt.Errorf("rule %d: %s targets every %s but the cluster has none", i, r.Kind, what)
			}
			continue
		}
		if r.Target >= have {
			return fmt.Errorf("rule %d: %s binds no %s (target %d, cluster has %d)",
				i, r.Kind, what, r.Target, have)
		}
	}
	return nil
}

// LinkFactor returns the bandwidth multiplier of a node's NIC at time t:
// 1 when healthy, the product of active LinkDegrade severities
// otherwise, floored at 1% of nominal so service times stay finite.
func (s *Schedule) LinkFactor(node int, t sim.Time) float64 {
	if s.Empty() {
		return 1
	}
	f := 1.0
	for _, r := range s.Rules {
		if r.Kind == LinkDegrade && r.matches(node) && r.active(t) {
			f *= r.Severity
		}
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// DropBoost returns the extra drop probability for messages delivered to
// a node at time t (sum of active boosts, capped at 1).
func (s *Schedule) DropBoost(node int, t sim.Time) float64 {
	if s.Empty() {
		return 0
	}
	p := 0.0
	for _, r := range s.Rules {
		if r.Kind == DropBoost && r.matches(node) && r.active(t) {
			p += r.Severity
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// SlowFactor returns the host CPU cost multiplier for a node at time t
// (1 when healthy, the product of active NodeSlow severities otherwise).
// A schedule that validated keeps it at most MaxSlowFactor.
func (s *Schedule) SlowFactor(node int, t sim.Time) float64 {
	if s.Empty() {
		return 1
	}
	f := 1.0
	for _, r := range s.Rules {
		if r.Kind == NodeSlow && r.matches(node) && r.active(t) {
			f *= r.Severity
		}
	}
	return f
}

// NICDown reports whether a node's NIC is inside an outage window at t.
func (s *Schedule) NICDown(node int, t sim.Time) bool {
	if s.Empty() {
		return false
	}
	for _, r := range s.Rules {
		if r.Kind == NICOutage && r.matches(node) && r.active(t) {
			return true
		}
	}
	return false
}

// StackFactor returns the capacity multiplier of a backplane segment at
// time t, floored at 1% like LinkFactor.
func (s *Schedule) StackFactor(segment int, t sim.Time) float64 {
	if s.Empty() {
		return 1
	}
	f := 1.0
	for _, r := range s.Rules {
		if r.Kind == BackplaneDegrade && r.matches(segment) && r.active(t) {
			f *= r.Severity
		}
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// Record writes the schedule's windows into a trace log as paired
// FaultBegin/FaultEnd events (Tag carries the rule index so exporters
// can re-pair them; Peer carries the target). The Chrome exporter
// renders these on a dedicated "faults" track.
func (s *Schedule) Record(l *trace.Log) {
	if s.Empty() || l == nil {
		return
	}
	for i, r := range s.Rules {
		note := fmt.Sprintf("%s x%.2f", r.Kind, r.Severity)
		if r.Kind == NICOutage {
			note = r.Kind.String()
		}
		l.Record(trace.Event{
			Time: r.Start, Rank: -1, Kind: trace.FaultBegin,
			Peer: r.Target, Tag: i, Note: note,
		})
		l.Record(trace.Event{
			Time: r.End, Rank: -1, Kind: trace.FaultEnd,
			Peer: r.Target, Tag: i, Note: note,
		})
	}
}

// Windows draws n non-overlapping-ish fault windows inside [0, span)
// seconds from an RNG substream: starts are uniform over the span, and
// lengths are uniform in [minLen, maxLen]. Windows are returned sorted
// by start time. The draws consume exactly 2n uniforms, so a scenario's
// window set depends only on the RNG state it is handed.
func Windows(rng *sim.RNG, n int, span, minLen, maxLen float64) [][2]sim.Time {
	out := make([][2]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		start := rng.Float64() * span
		length := minLen + (maxLen-minLen)*rng.Float64()
		end := start + length
		if end > span {
			end = span
		}
		s, e := sim.TimeFromSeconds(start), sim.TimeFromSeconds(end)
		if e <= s {
			e = s + sim.Time(sim.Millisecond)
		}
		out = append(out, [2]sim.Time{s, e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
