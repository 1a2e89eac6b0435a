package sim

import (
	"testing"

	"repro/internal/metrics"
)

// TestKernelMetrics checks that the engine's built-in instruments track
// the event queue exactly: every scheduled event is counted once, and
// the depth gauge holds the deepest queue Run drained.
func TestKernelMetrics(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), func() {})
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	e.Schedule(1, func() {})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}

	s := e.Metrics().Snapshot()
	if got, ok := s.Counter("sim", "events_scheduled_total"); !ok || got != 11 {
		t.Errorf("sim/events_scheduled_total = %d (ok=%v), want 11", got, ok)
	}
	depth, ok := s.Gauge("sim", "event_heap_depth_max")
	if !ok || depth != 10 {
		t.Errorf("event_heap_depth_max = %d (ok=%v), want 10", depth, ok)
	}
}

// TestProcMetrics checks the process census instruments.
func TestProcMetrics(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.Spawn("worker", func(p *Proc) { p.Sleep(5) })
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	s := e.Metrics().Snapshot()
	if got, _ := s.Counter("sim", "procs_spawned_total"); got != 4 {
		t.Errorf("procs_spawned_total = %d, want 4", got)
	}
	if got, _ := s.Gauge("sim", "procs_alive_max"); got != 4 {
		t.Errorf("procs_alive_max = %d, want 4", got)
	}
}

// TestMetricsDoNotPerturbSimulation reruns the same workload on an
// engine and asserts the metrics registry had no effect on event
// ordering: both runs end at the same virtual time with identical
// snapshots. (The real end-to-end guarantee is the golden-trace and
// figure determinism suites; this is the kernel-level canary.)
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	run := func() (Time, metrics.Snapshot) {
		e := NewEngine(99)
		rng := e.RNG("load")
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth == 0 {
				return
			}
			e.Schedule(Duration(rng.Intn(100)+1), func() {
				spawn(depth - 1)
				spawn(depth - 1)
			})
		}
		spawn(6)
		end, err := e.Run(Forever)
		if err != nil {
			t.Fatal(err)
		}
		return end, e.Metrics().Snapshot()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("end times differ: %v vs %v", t1, t2)
	}
	if v1, _ := s1.Counter("sim", "events_scheduled_total"); v1 == 0 {
		t.Error("no events recorded")
	}
	for i, p := range s1.Counters {
		if q := s2.Counters[i]; q.Key() != p.Key() || q.Value != p.Value {
			t.Errorf("counter %s differs between identical runs", p.Key())
		}
	}
}
