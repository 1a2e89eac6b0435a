package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRuleValidate(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	cases := []struct {
		name string
		r    Rule
		ok   bool
	}{
		{"link ok", Rule{Kind: LinkDegrade, Start: 0, End: sec(1), Target: 0, Severity: 0.5}, true},
		{"link sev 1", Rule{Kind: LinkDegrade, Start: 0, End: sec(1), Target: 0, Severity: 1}, false},
		{"link sev 0", Rule{Kind: LinkDegrade, Start: 0, End: sec(1), Target: 0, Severity: 0}, false},
		{"drop ok", Rule{Kind: DropBoost, Start: 0, End: sec(1), Target: AllTargets, Severity: 1}, true},
		{"drop over", Rule{Kind: DropBoost, Start: 0, End: sec(1), Target: 0, Severity: 1.5}, false},
		{"slow ok", Rule{Kind: NodeSlow, Start: 0, End: sec(1), Target: 2, Severity: 3}, true},
		{"slow under", Rule{Kind: NodeSlow, Start: 0, End: sec(1), Target: 2, Severity: 0.5}, false},
		{"outage ok", Rule{Kind: NICOutage, Start: 0, End: sec(1), Target: 1}, true},
		{"empty window", Rule{Kind: NICOutage, Start: sec(1), End: sec(1), Target: 1}, false},
		{"bad target", Rule{Kind: NICOutage, Start: 0, End: sec(1), Target: -2}, false},
		{"backplane ok", Rule{Kind: BackplaneDegrade, Start: 0, End: sec(1), Target: 0, Severity: 0.25}, true},
	}
	for _, c := range cases {
		err := (&Schedule{Rules: []Rule{c.r}}).Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// TestRuleValidateRefusesNonFiniteSeverity: every range check is false
// for NaN, so a NaN severity of any kind, an infinite node-slow one and
// any non-finite outage severity used to pass and make the queries
// answer NaN or +Inf.
func TestRuleValidateRefusesNonFiniteSeverity(t *testing.T) {
	for _, k := range []Kind{LinkDegrade, DropBoost, NodeSlow, NICOutage, BackplaneDegrade} {
		for _, sev := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := Rule{Kind: k, Start: 0, End: sim.TimeFromSeconds(1), Target: 0, Severity: sev}
			err := (&Schedule{Rules: []Rule{r}}).ValidateFor(4, 4)
			if err == nil {
				t.Errorf("%v severity %v accepted", k, sev)
			} else if !strings.Contains(err.Error(), "not finite") {
				t.Errorf("%v severity %v: %v, want a non-finite severity error", k, sev, err)
			}
		}
	}
}

// TestValidateBoundsSlowFactor: every NodeSlow severity above 1 passes
// Rule.Validate, so two overlapping 1e308 rules used to validate and
// make SlowFactor +Inf, which internal/mpi's host costs then convert to
// a sim.Duration. A schedule now validates only while the product of
// the NodeSlow severities active on a node at one time stays at most
// MaxSlowFactor, and the error names the first rule whose start
// exceeds it.
func TestValidateBoundsSlowFactor(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	slow := func(start, end float64, target int, sev float64) Rule {
		return Rule{Kind: NodeSlow, Start: sec(start), End: sec(end), Target: target, Severity: sev}
	}
	cases := []struct {
		name  string
		rules []Rule
		want  string // "" accepts
	}{
		{"two overlapping 1e308", []Rule{
			{Kind: NodeSlow, End: sec(1), Target: AllTargets, Severity: 1e308},
			{Kind: NodeSlow, Start: -sec(1), End: sim.Forever, Target: 1, Severity: 1e308},
		}, "rule 0: node-slow severities active at its start multiply to 1e+308 on target=all, above MaxSlowFactor 1000"},
		{"one rule at the maximum", []Rule{slow(0, 1, 0, MaxSlowFactor)}, ""},
		{"one rule above the maximum", []Rule{slow(0, 1, 0, 1001)}, "rule 0: node-slow severities active at its start multiply to 1001 on target=0, above MaxSlowFactor 1000"},
		{"overlap at the maximum", []Rule{slow(0, 2, AllTargets, 10), slow(1, 3, 1, 100)}, ""},
		{"overlap above the maximum", []Rule{slow(0, 2, AllTargets, 10), slow(1, 3, 1, 101)}, "rule 1: node-slow severities active at its start multiply to 1010 on target=1, above MaxSlowFactor 1000"},
		{"every node after a named one", []Rule{slow(0, 10, 1, 40), slow(5, 20, AllTargets, 30)}, "rule 1: node-slow severities active at its start multiply to 1200 on target=1, above MaxSlowFactor 1000"},
		{"apart, each below the maximum", []Rule{slow(0, 1, 0, 999), slow(1, 2, 0, 999), slow(0, 2, 1, 999)}, ""},
		{"noisy-node's four windows at once", []Rule{slow(0, 4, 2, 3), slow(1, 4, 2, 3), slow(2, 4, 2, 3), slow(3, 4, 2, 3)}, ""},
	}
	for _, c := range cases {
		s := &Schedule{Rules: c.rules}
		for range 2 {
			err := s.ValidateFor(4, 0)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s: %v", c.name, err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("%s: error %v, want %q", c.name, err, c.want)
			}
		}
		if c.want == "" {
			for _, r := range c.rules {
				if f := s.SlowFactor(r.Target, r.Start); f > MaxSlowFactor {
					t.Errorf("%s: SlowFactor %v at an accepted rule's start", c.name, f)
				}
			}
		}
	}
}

func TestScheduleQueries(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	s := &Schedule{Name: "mixed", Rules: []Rule{
		{Kind: LinkDegrade, Start: sec(1), End: sec(2), Target: 3, Severity: 0.5},
		{Kind: LinkDegrade, Start: sec(1.5), End: sec(2.5), Target: AllTargets, Severity: 0.4},
		{Kind: DropBoost, Start: sec(0), End: sec(1), Target: 0, Severity: 0.7},
		{Kind: DropBoost, Start: sec(0), End: sec(1), Target: AllTargets, Severity: 0.6},
		{Kind: NodeSlow, Start: sec(2), End: sec(3), Target: 1, Severity: 4},
		{Kind: NICOutage, Start: sec(5), End: sec(6), Target: 2},
		{Kind: BackplaneDegrade, Start: sec(0), End: sec(10), Target: 1, Severity: 0.25},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// LinkFactor: outside windows 1; inside one window 0.5; where the two
	// overlap the severities multiply.
	if f := s.LinkFactor(3, sec(0.5)); f != 1 {
		t.Errorf("LinkFactor before window = %v", f)
	}
	if f := s.LinkFactor(3, sec(1.2)); f != 0.5 {
		t.Errorf("LinkFactor in window = %v, want 0.5", f)
	}
	if f := s.LinkFactor(3, sec(1.7)); f < 0.199 || f > 0.201 {
		t.Errorf("overlapping LinkFactor = %v, want 0.2", f)
	}
	if f := s.LinkFactor(0, sec(1.7)); f != 0.4 {
		t.Errorf("all-targets LinkFactor = %v, want 0.4", f)
	}
	// Window end is exclusive.
	if f := s.LinkFactor(3, sec(2)); f != 0.4 {
		t.Errorf("LinkFactor at end = %v, want 0.4 (end exclusive)", f)
	}

	// DropBoost sums and caps at 1.
	if p := s.DropBoost(0, sec(0.5)); p != 1 {
		t.Errorf("DropBoost sum = %v, want capped 1", p)
	}
	if p := s.DropBoost(4, sec(0.5)); p != 0.6 {
		t.Errorf("DropBoost all-targets = %v, want 0.6", p)
	}
	if p := s.DropBoost(0, sec(1.5)); p != 0 {
		t.Errorf("DropBoost outside window = %v", p)
	}

	if f := s.SlowFactor(1, sec(2.5)); f != 4 {
		t.Errorf("SlowFactor = %v, want 4", f)
	}
	if f := s.SlowFactor(0, sec(2.5)); f != 1 {
		t.Errorf("SlowFactor other node = %v, want 1", f)
	}

	if !s.NICDown(2, sec(5.5)) || s.NICDown(2, sec(4)) || s.NICDown(0, sec(5.5)) {
		t.Error("NICDown window wrong")
	}

	if f := s.StackFactor(1, sec(3)); f != 0.25 {
		t.Errorf("StackFactor = %v, want 0.25", f)
	}
	if f := s.StackFactor(0, sec(3)); f != 1 {
		t.Errorf("StackFactor other segment = %v, want 1", f)
	}
}

func TestEmptyScheduleNeutral(t *testing.T) {
	var nilSched *Schedule
	for _, s := range []*Schedule{nil, {}, nilSched} {
		if !s.Empty() {
			t.Fatal("empty schedule not Empty")
		}
		if s.LinkFactor(0, 0) != 1 || s.DropBoost(0, 0) != 0 ||
			s.SlowFactor(0, 0) != 1 || s.NICDown(0, 0) || s.StackFactor(0, 0) != 1 {
			t.Fatal("empty schedule is not neutral")
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeverityFloor(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	s := &Schedule{Rules: []Rule{
		{Kind: LinkDegrade, Start: 0, End: sec(1), Target: 0, Severity: 0.01},
		{Kind: LinkDegrade, Start: 0, End: sec(1), Target: 0, Severity: 0.01},
	}}
	if f := s.LinkFactor(0, sec(0.5)); f != 0.01 {
		t.Errorf("LinkFactor = %v, want floor 0.01", f)
	}
}

func TestRecordEmitsPairedWindows(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	s := &Schedule{Name: "x", Rules: []Rule{
		{Kind: NICOutage, Start: sec(1), End: sec(2), Target: 3},
		{Kind: NodeSlow, Start: sec(0), End: sec(4), Target: 0, Severity: 2},
	}}
	l := trace.NewLog(0)
	s.Record(l)
	if n := len(l.Events()); n != 4 {
		t.Fatalf("recorded %d events, want 4", n)
	}
	begins, ends := 0, 0
	for _, ev := range l.Events() {
		switch ev.Kind {
		case trace.FaultBegin:
			begins++
		case trace.FaultEnd:
			ends++
		}
		if ev.Rank != -1 {
			t.Errorf("fault event on rank %d, want -1", ev.Rank)
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("begin/end = %d/%d, want 2/2", begins, ends)
	}
	// Empty schedules record nothing.
	l2 := trace.NewLog(0)
	(&Schedule{}).Record(l2)
	if len(l2.Events()) != 0 {
		t.Error("empty schedule recorded events")
	}
}

func TestWindowsDeterministicAndBounded(t *testing.T) {
	const span = 2.0
	a := Windows(sim.NewCellRNG(42, "faults/test"), 5, span, 0.05, 0.3)
	b := Windows(sim.NewCellRNG(42, "faults/test"), 5, span, 0.05, 0.3)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("window counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different windows: %v vs %v", a[i], b[i])
		}
		if a[i][0] < 0 || a[i][1] > sim.TimeFromSeconds(span) || a[i][1] <= a[i][0] {
			t.Errorf("window %d out of bounds: %v", i, a[i])
		}
		if i > 0 && a[i][0] < a[i-1][0] {
			t.Errorf("windows not sorted: %v after %v", a[i], a[i-1])
		}
	}
	c := Windows(sim.NewCellRNG(43, "faults/test"), 5, span, 0.05, 0.3)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical windows")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Kind: LinkDegrade, Start: 0, End: sim.TimeFromSeconds(1), Target: AllTargets, Severity: 0.5}
	if s := r.String(); !strings.Contains(s, "link-degrade") || !strings.Contains(s, "all") {
		t.Errorf("Rule.String() = %q", s)
	}
	if KindName := Kind(99).String(); !strings.Contains(KindName, "99") {
		t.Errorf("unknown kind string = %q", KindName)
	}
}

func TestValidateForBindingChecks(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.TimeFromSeconds(s) }
	mk := func(k Kind, target int) *Schedule {
		sev := 0.5
		if k == NodeSlow {
			sev = 2
		}
		return &Schedule{Name: "t", Rules: []Rule{{
			Kind: k, Start: sec(0), End: sec(1), Target: target, Severity: sev,
		}}}
	}

	// In-range targets pass.
	if err := mk(BackplaneDegrade, 3).ValidateFor(8, 4); err != nil {
		t.Fatal(err)
	}
	if err := mk(LinkDegrade, 7).ValidateFor(8, 4); err != nil {
		t.Fatal(err)
	}

	// A backplane rule whose segment does not exist binds nothing: the
	// window would silently perturb nothing. Must be rejected.
	if err := mk(BackplaneDegrade, 4).ValidateFor(8, 4); err == nil {
		t.Fatal("segment 4 of 4 should fail")
	} else if !strings.Contains(err.Error(), "binds no backplane segment") {
		t.Errorf("error should say the rule binds no segment: %v", err)
	}
	// Same for node rules beyond the node count.
	if err := mk(NodeSlow, 8).ValidateFor(8, 4); err == nil {
		t.Fatal("node 8 of 8 should fail")
	}
	// AllTargets needs at least one target of the right kind to exist.
	if err := mk(BackplaneDegrade, AllTargets).ValidateFor(8, 0); err == nil {
		t.Fatal("all-segments rule on a segmentless machine should fail")
	}
	if err := mk(DropBoost, AllTargets).ValidateFor(8, 0); err != nil {
		t.Fatalf("all-nodes rule should not care about segments: %v", err)
	}

	// Nil schedules and per-rule failures still flow through.
	var nilSched *Schedule
	if err := nilSched.ValidateFor(8, 4); err != nil {
		t.Fatal(err)
	}
	bad := mk(LinkDegrade, 0)
	bad.Rules[0].Severity = 2
	if err := bad.ValidateFor(8, 4); err == nil {
		t.Fatal("per-rule validation should still run")
	}
}
