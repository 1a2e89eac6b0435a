// Package metrics is the deterministic observability layer of the
// simulation stack. It provides a registry of counters, gauges and
// fixed-bucket histograms keyed by (package, name, labels), designed
// around two constraints the rest of the repository imposes:
//
//   - Zero allocations on the hot path. Incrementing a counter, raising
//     a high-water gauge or observing into a histogram touches only
//     fields of a struct the caller already holds a pointer to — no
//     maps, no interfaces, no atomic boxes. Registration (the cold
//     path) does the allocation once, typically when an engine or
//     network is built.
//
//   - Determinism. Every metric value is integral (event counts, bytes,
//     int64 nanoseconds) and derived only from simulation state, never
//     from wall clocks, so snapshots are byte-identical for every
//     worker count, healthy and under fault schedules. Counters and
//     histograms merge by sum and gauges by max — all commutative and
//     associative, so even the merge order across sweep cells cannot
//     change the result (cells still fold in canonical order, matching
//     the makespan fold).
//
// Metrics that are inherently scheduling-dependent (per-worker cell
// counts in the sweep pool) are registered as "volatile": they are kept
// out of Snapshot and of the exported METRICS.json / Prometheus text,
// and are only visible through SnapshotAll for humans and tests.
//
// A registry is single-threaded by design, like the simulation engine
// it instruments: every sweep cell owns its engine and therefore its
// registry, and cross-cell aggregation happens on the caller's
// goroutine via Aggregate.
package metrics

import (
	"fmt"
	"sort"
)

// Label is one key=value dimension of a metric (e.g. node="3").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one. It performs no allocation.
func (c *Counter) Inc() { c.v++ }

// Add adds n. It performs no allocation.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a high-water mark: a level that only moves up through SetMax.
// (Plain Set exists for completeness, but merged snapshots combine
// gauges by max, so only high-water semantics survive aggregation.)
type Gauge struct {
	v int64
}

// SetMax raises the gauge to v if v is higher. It performs no allocation.
func (g *Gauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts integral observations into fixed buckets. Bucket i
// holds observations v <= bounds[i] (and above bounds[i-1]); one
// overflow bucket holds everything above the last bound. Bounds are
// fixed at registration, so histograms from different sweep cells merge
// bucket-wise.
type Histogram struct {
	bounds []int64  // sorted inclusive upper bounds
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    int64
	count  uint64
}

// Observe records v. It performs no allocation.
func (h *Histogram) Observe(v int64) {
	// Linear scan: bucket lists are short (single digits) and the scan
	// avoids the branch-misses of binary search on tiny arrays.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// entry is one registered instrument.
type entry struct {
	pkg, name string
	labels    []Label
	kind      kind
	volatile  bool

	c Counter
	g Gauge
	h Histogram
}

// Registry holds the instruments of one simulation (one engine, one
// sweep cell). It is not safe for concurrent use, matching the
// single-threaded engines it instruments.
type Registry struct {
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// key builds the canonical identity "pkg/name{k=v,...}" with labels in
// key order.
func key(pkg, name string, labels []Label) string {
	// A key of up to 128 bytes is built on the stack, so the string is
	// its only allocation.
	var buf [128]byte
	return string(appendKey(buf[:0], pkg, name, labels))
}

// appendKey appends key(pkg, name, labels) to dst.
func appendKey(dst []byte, pkg, name string, labels []Label) []byte {
	dst = append(dst, pkg...)
	dst = append(dst, '/')
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	return append(dst, '}')
}

// register returns the entry for (pkg, name, labels), creating it on
// first use. Re-registering the same key with the same kind returns the
// existing instrument; a kind clash is a programming error and panics.
func (r *Registry) register(pkg, name string, labels []Label, k kind, volatile bool) *entry {
	if pkg == "" || name == "" {
		panic("metrics: empty package or name")
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	id := key(pkg, name, sorted)
	if e, ok := r.entries[id]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %s registered twice with kinds %v and %v", id, e.kind, k))
		}
		return e
	}
	e := &entry{pkg: pkg, name: name, labels: sorted, kind: k, volatile: volatile}
	r.entries[id] = e
	return e
}

// Counter registers (or returns) a deterministic counter.
func (r *Registry) Counter(pkg, name string, labels ...Label) *Counter {
	return &r.register(pkg, name, labels, kindCounter, false).c
}

// Gauge registers (or returns) a deterministic high-water gauge.
func (r *Registry) Gauge(pkg, name string, labels ...Label) *Gauge {
	return &r.register(pkg, name, labels, kindGauge, false).g
}

// Histogram registers (or returns) a deterministic fixed-bucket
// histogram. Bounds must be sorted ascending; they are fixed for the
// registry's lifetime (a re-registration keeps the original bounds).
func (r *Registry) Histogram(pkg, name string, bounds []int64, labels ...Label) *Histogram {
	e := r.register(pkg, name, labels, kindHistogram, false)
	return initHist(e, bounds)
}

// VolatileGauge registers a high-water gauge excluded from
// deterministic snapshots (see the package comment).
func (r *Registry) VolatileGauge(pkg, name string, labels ...Label) *Gauge {
	return &r.register(pkg, name, labels, kindGauge, true).g
}

// VolatileHistogram registers a histogram excluded from deterministic
// snapshots.
func (r *Registry) VolatileHistogram(pkg, name string, bounds []int64, labels ...Label) *Histogram {
	e := r.register(pkg, name, labels, kindHistogram, true)
	return initHist(e, bounds)
}

func initHist(e *entry, bounds []int64) *Histogram {
	if e.h.counts != nil {
		return &e.h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s/%s histogram bounds not strictly ascending: %v",
				e.pkg, e.name, bounds))
		}
	}
	e.h.bounds = append([]int64(nil), bounds...)
	e.h.counts = make([]uint64, len(bounds)+1)
	return &e.h
}
