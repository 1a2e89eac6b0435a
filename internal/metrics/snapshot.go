package metrics

import (
	"fmt"
	"sort"
)

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Pkg    string  `json:"pkg"`
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugePoint is one high-water gauge in a snapshot.
type GaugePoint struct {
	Pkg    string  `json:"pkg"`
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// HistogramPoint is one histogram in a snapshot. Counts has one more
// element than Bounds: the overflow bucket.
type HistogramPoint struct {
	Pkg    string   `json:"pkg"`
	Name   string   `json:"name"`
	Labels []Label  `json:"labels,omitempty"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

// Key returns the canonical identity of the point.
func (p CounterPoint) Key() string { return key(p.Pkg, p.Name, p.Labels) }

// Key returns the canonical identity of the point.
func (p GaugePoint) Key() string { return key(p.Pkg, p.Name, p.Labels) }

// Key returns the canonical identity of the point.
func (p HistogramPoint) Key() string { return key(p.Pkg, p.Name, p.Labels) }

// Snapshot is a stable-ordered copy of a registry's state: each section
// sorted by canonical key. Equal simulations produce byte-identical
// snapshots (and byte-identical JSON/Prometheus encodings).
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot copies the deterministic instruments into a stable-ordered
// snapshot. Volatile instruments are excluded — they may differ between
// worker counts and must not reach exported files.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// SnapshotAll is Snapshot including volatile instruments, for human
// inspection and tests only.
func (r *Registry) SnapshotAll() Snapshot { return r.snapshot(true) }

// snapshot appends points in sorted order of the registry's keys, which
// are the canonical ids Key() returns. Sorting the keys once, rather
// than the points by Key(), keeps the allocation count independent of
// map iteration order: Key() builds a string on every comparison.
func (r *Registry) snapshot(includeVolatile bool) Snapshot {
	var s Snapshot
	for _, id := range sortedKeys(r.entries) {
		e := r.entries[id]
		if e.volatile && !includeVolatile {
			continue
		}
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterPoint{
				Pkg: e.pkg, Name: e.name, Labels: e.labels, Value: e.c.v,
			})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugePoint{
				Pkg: e.pkg, Name: e.name, Labels: e.labels, Value: e.g.v,
			})
		case kindHistogram:
			s.Histograms = append(s.Histograms, HistogramPoint{
				Pkg: e.pkg, Name: e.name, Labels: e.labels,
				Bounds: append([]int64(nil), e.h.bounds...),
				Counts: append([]uint64(nil), e.h.counts...),
				Sum:    e.h.sum,
				Count:  e.h.count,
			})
		}
	}
	return s
}

// Counter returns the value of the named counter, or false if absent.
func (s Snapshot) Counter(pkg, name string, labels ...Label) (uint64, bool) {
	id := key(pkg, name, sortedLabels(labels))
	for _, p := range s.Counters {
		if p.Key() == id {
			return p.Value, true
		}
	}
	return 0, false
}

// Gauge returns the value of the named gauge, or false if absent.
func (s Snapshot) Gauge(pkg, name string, labels ...Label) (int64, bool) {
	id := key(pkg, name, sortedLabels(labels))
	for _, p := range s.Gauges {
		if p.Key() == id {
			return p.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram point, or false if absent.
func (s Snapshot) Histogram(pkg, name string, labels ...Label) (HistogramPoint, bool) {
	id := key(pkg, name, sortedLabels(labels))
	for _, p := range s.Histograms {
		if p.Key() == id {
			return p, true
		}
	}
	return HistogramPoint{}, false
}

func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Aggregate folds snapshots from many sweep cells into one. Counters
// and histogram buckets add, gauges keep the maximum — the semantics
// every registered gauge has (high-water marks). All operations are
// commutative and associative, so the folded result is independent of
// merge order; callers still merge in canonical cell order, like the
// makespan fold, so even a future order-sensitive metric would stay
// deterministic.
type Aggregate struct {
	counters map[string]*CounterPoint
	gauges   map[string]*GaugePoint
	hists    map[string]*HistogramPoint

	// key is Merge's scratch for one point's Key(). A lookup by
	// string(key) builds no string, so only a key Merge inserts costs
	// one.
	key []byte
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		counters: make(map[string]*CounterPoint),
		gauges:   make(map[string]*GaugePoint),
		hists:    make(map[string]*HistogramPoint),
	}
}

// Merge folds one snapshot in. Histograms with the same key must have
// identical bounds (they are fixed at registration, so a mismatch is a
// programming error and panics).
func (a *Aggregate) Merge(s Snapshot) {
	for _, p := range s.Counters {
		a.key = appendKey(a.key[:0], p.Pkg, p.Name, p.Labels)
		if have, ok := a.counters[string(a.key)]; ok {
			have.Value += p.Value
		} else {
			cp := p
			a.counters[string(a.key)] = &cp
		}
	}
	for _, p := range s.Gauges {
		a.key = appendKey(a.key[:0], p.Pkg, p.Name, p.Labels)
		if have, ok := a.gauges[string(a.key)]; ok {
			if p.Value > have.Value {
				have.Value = p.Value
			}
		} else {
			gp := p
			a.gauges[string(a.key)] = &gp
		}
	}
	for _, p := range s.Histograms {
		a.key = appendKey(a.key[:0], p.Pkg, p.Name, p.Labels)
		have, ok := a.hists[string(a.key)]
		if !ok {
			hp := p
			hp.Bounds = append([]int64(nil), p.Bounds...)
			hp.Counts = append([]uint64(nil), p.Counts...)
			a.hists[string(a.key)] = &hp
			continue
		}
		if len(have.Bounds) != len(p.Bounds) {
			panic(fmt.Sprintf("metrics: merging %s with different bucket bounds", a.key))
		}
		for i, b := range p.Bounds {
			if have.Bounds[i] != b {
				panic(fmt.Sprintf("metrics: merging %s with different bucket bounds", a.key))
			}
		}
		for i, c := range p.Counts {
			have.Counts[i] += c
		}
		have.Sum += p.Sum
		have.Count += p.Count
	}
}

// Snapshot returns the folded state, stable-ordered like a registry
// snapshot. Like Registry.snapshot it walks each section in sorted key
// order (the map keys are the points' Key() values), so it builds no
// key strings and allocates the same whatever the map order.
func (a *Aggregate) Snapshot() Snapshot {
	var s Snapshot
	for _, id := range sortedKeys(a.counters) {
		s.Counters = append(s.Counters, *a.counters[id])
	}
	for _, id := range sortedKeys(a.gauges) {
		s.Gauges = append(s.Gauges, *a.gauges[id])
	}
	for _, id := range sortedKeys(a.hists) {
		p := a.hists[id]
		hp := *p
		hp.Bounds = append([]int64(nil), p.Bounds...)
		hp.Counts = append([]uint64(nil), p.Counts...)
		s.Histograms = append(s.Histograms, hp)
	}
	return s
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
