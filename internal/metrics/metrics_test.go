package metrics

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim", "events_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	g := r.Gauge("sim", "depth_max")
	g.SetMax(7)
	g.SetMax(3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7 (SetMax must not lower)", g.Value())
	}

	h := r.Histogram("net", "tries", []int64{0, 1, 2, 5})
	for _, v := range []int64{0, 0, 1, 3, 9} {
		h.Observe(v)
	}
	p, ok := r.Snapshot().Histogram("net", "tries")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if p.Count != 5 || p.Sum != 13 {
		t.Errorf("histogram count %d sum %d, want 5 and 13", p.Count, p.Sum)
	}
	want := []uint64{2, 1, 0, 1, 1} // <=0, <=1, <=2, <=5, overflow
	for i, c := range want {
		if p.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, p.Counts[i], c, p.Counts)
		}
	}
}

func TestRegisterIdempotentAndKindClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("p", "n", L("k", "v"))
	b := r.Counter("p", "n", L("k", "v"))
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	// Label order must not matter for identity.
	x := r.Gauge("p", "g", L("a", "1"), L("b", "2"))
	y := r.Gauge("p", "g", L("b", "2"), L("a", "1"))
	if x != y {
		t.Error("label order changed instrument identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("p", "n", L("k", "v"))
}

func TestSnapshotStableOrderAndVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", "two").Inc()
	r.Counter("a", "one").Inc()
	r.VolatileGauge("z", "scheduling_dependent").SetMax(1)

	s := r.Snapshot()
	if len(s.Counters) != 2 {
		t.Fatalf("deterministic snapshot has %d counters, want 2 (volatile excluded)", len(s.Counters))
	}
	if s.Counters[0].Key() != "a/one" || s.Counters[1].Key() != "b/two" {
		t.Errorf("snapshot not sorted by key: %v", []string{s.Counters[0].Key(), s.Counters[1].Key()})
	}
	if _, ok := r.SnapshotAll().Gauge("z", "scheduling_dependent"); !ok {
		t.Error("SnapshotAll lost the volatile gauge")
	}
}

// TestSnapshotJSONByteStable is the determinism contract in miniature:
// two registries built by the same code produce identical bytes.
func TestSnapshotJSONByteStable(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		for i := 0; i < 10; i++ {
			r.Counter("net", "bytes", L("node", string(rune('0'+i)))).Add(uint64(i) * 3)
		}
		r.Gauge("sim", "depth").SetMax(42)
		r.Histogram("net", "tries", []int64{0, 1, 2}).Observe(1)
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal registries produced different JSON bytes")
	}
}

// TestSnapshotAllocsIndependentOfMapOrder keeps allocation guards over
// code that snapshots a registry deterministic: registries holding the
// same instruments must allocate the same in Snapshot, whatever order
// their map happens to iterate in.
func TestSnapshotAllocsIndependentOfMapOrder(t *testing.T) {
	var first float64
	for i := 0; i < 100; i++ {
		r := NewRegistry()
		for n := 0; n < 12; n++ {
			r.Counter("pevpm", "draws_total", L("dist", string(rune('a'+n)))).Inc()
		}
		got := testing.AllocsPerRun(1, func() { r.Snapshot() })
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("registry %d: Snapshot made %.0f allocations, registry 0 made %.0f", i, got, first)
		}
	}
}

// TestAggregateSnapshotAllocsPerPoint: an aggregate of many labelled
// points, the shape of a sharded network's merged LP snapshots,
// snapshots with the same allocation count on every call, whatever
// order its maps iterate in, and with at most two allocations per point
// (a histogram copies its bounds and counts; other points cost only
// their share of the section's appends). Sorting the points by Key()
// would build two key strings per comparison.
func TestAggregateSnapshotAllocsPerPoint(t *testing.T) {
	r := NewRegistry()
	const segments = 300
	for s := 0; s < segments; s++ {
		seg := L("segment", strconv.Itoa(s))
		r.Counter("net", "segment_bytes_total", seg).Add(uint64(s))
		r.Gauge("net", "segment_backlog_ns_max", seg).SetMax(int64(s))
	}
	r.Histogram("net", "rto_backoff_depth", []int64{0, 1, 2}).Observe(1)
	a := NewAggregate()
	a.Merge(r.Snapshot())
	const points = 2*segments + 1
	var first float64
	for i := 0; i < 50; i++ {
		// A collection that starts inside the measured call adds the
		// runtime's own allocations to the count; collect first.
		runtime.GC()
		got := testing.AllocsPerRun(1, func() { a.Snapshot() })
		if i == 0 {
			first = got
			if got > 2*points {
				t.Fatalf("Snapshot of %d points made %.0f allocations, want at most %d", points, got, 2*points)
			}
		} else if got != first {
			t.Fatalf("call %d: Snapshot made %.0f allocations, call 0 made %.0f", i, got, first)
		}
	}
}

// TestAggregateMergeAllocsWarm: merging a snapshot whose points the
// aggregate already holds allocates nothing, the way a replication loop
// or a sharded network's LP fold merges the same instruments over and
// over. Building each point's Key() string would cost one object per
// labelled point.
func TestAggregateMergeAllocsWarm(t *testing.T) {
	r := NewRegistry()
	const segments = 200
	for s := 0; s < segments; s++ {
		seg := L("segment", strconv.Itoa(s))
		r.Counter("net", "segment_bytes_total", seg, L("dir", "up")).Add(uint64(s))
		r.Gauge("net", "segment_backlog_ns_max", seg).SetMax(int64(s))
		r.Histogram("net", "segment_queue_depth", []int64{0, 1, 4}, seg).Observe(int64(s % 6))
	}
	s := r.Snapshot()
	a := NewAggregate()
	a.Merge(s)
	if got := testing.AllocsPerRun(10, func() { a.Merge(s) }); got != 0 {
		t.Errorf("warm Merge of %d points made %.0f allocations, want 0", 3*segments, got)
	}
	c, _ := a.Snapshot().Counter("net", "segment_bytes_total", L("segment", "7"), L("dir", "up"))
	if want := uint64(7 * 12); c != want {
		t.Errorf("segment 7 bytes after 12 merges = %d, want %d", c, want)
	}
}

func TestAggregateMergeSemantics(t *testing.T) {
	cell := func(n uint64, g int64, obs []int64) Snapshot {
		r := NewRegistry()
		r.Counter("p", "c").Add(n)
		r.Gauge("p", "g").SetMax(g)
		h := r.Histogram("p", "h", []int64{1, 10})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	s1 := cell(3, 5, []int64{0, 7})
	s2 := cell(4, 2, []int64{20})

	// Merge order must not matter (commutative fold).
	for _, order := range [][]Snapshot{{s1, s2}, {s2, s1}} {
		a := NewAggregate()
		for _, s := range order {
			a.Merge(s)
		}
		got := a.Snapshot()
		if v, _ := got.Counter("p", "c"); v != 7 {
			t.Errorf("merged counter = %d, want 7", v)
		}
		if v, _ := got.Gauge("p", "g"); v != 5 {
			t.Errorf("merged gauge = %d, want 5 (max)", v)
		}
		h, _ := got.Histogram("p", "h")
		if h.Count != 3 || h.Sum != 27 {
			t.Errorf("merged histogram count %d sum %d, want 3 and 27", h.Count, h.Sum)
		}
		if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
			t.Errorf("merged buckets %v, want [1 1 1]", h.Counts)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("net", "wire_bytes_total", L("node", "3")).Add(128)
	r.Counter("net", "wire_bytes_total", L("node", "7")).Add(64)
	r.Gauge("sim", "heap_depth_max").SetMax(9)
	h := r.Histogram("net", "rto_depth", []int64{0, 1})
	h.Observe(0)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE repro_net_wire_bytes_total counter",
		`repro_net_wire_bytes_total{node="3"} 128`,
		`repro_net_wire_bytes_total{node="7"} 64`,
		"# TYPE repro_sim_heap_depth_max gauge",
		"repro_sim_heap_depth_max 9",
		"# TYPE repro_net_rto_depth histogram",
		`repro_net_rto_depth_bucket{le="0"} 1`,
		`repro_net_rto_depth_bucket{le="1"} 1`,
		`repro_net_rto_depth_bucket{le="+Inf"} 2`,
		"repro_net_rto_depth_sum 5",
		"repro_net_rto_depth_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The format allows only one TYPE line per metric family: labelled
	// series of the same name must share it.
	if n := strings.Count(out, "# TYPE repro_net_wire_bytes_total "); n != 1 {
		t.Errorf("wire_bytes_total declared TYPE %d times, want 1:\n%s", n, out)
	}
}

// TestHotPathZeroAlloc is the tentpole guarantee: incrementing any
// instrument allocates nothing, so instrumentation cannot disturb the
// allocation-free simulation hot paths.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("p", "c")
	g := r.Gauge("p", "g")
	h := r.Histogram("p", "h", []int64{1, 2, 4, 8})

	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("counter increments allocate %.1f/op, want 0", n)
	}
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { v++; g.SetMax(v) }); n != 0 {
		t.Errorf("gauge SetMax allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v % 12) }); n != 0 {
		t.Errorf("histogram Observe allocates %.1f/op, want 0", n)
	}
}
