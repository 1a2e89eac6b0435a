package service

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// stage latency buckets in microseconds: 100µs … 100s.
var latencyBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// serviceMetrics wraps an internal/metrics Registry for concurrent HTTP
// use. The registry itself is deliberately single-threaded (it belongs
// to the deterministic zero-alloc simulation layer); the service is the
// one consumer that genuinely races, so every touch goes through one
// mutex. Request handling spends its time in simulation, not in
// counting, so contention here is noise.
//
// Everything observable about the service at runtime — latencies, cache
// state, requests in flight — is registered volatile: excluded from the
// deterministic Snapshot() contract, included in SnapshotAll() for the
// /metrics endpoint. Deterministic counters (requests, predictions,
// replications) use regular instruments.
type serviceMetrics struct {
	mu  sync.Mutex
	reg *metrics.Registry
}

func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{reg: metrics.NewRegistry()}
}

func (m *serviceMetrics) incRequest(endpoint string, code int) {
	m.mu.Lock()
	m.reg.Counter("service", "requests_total",
		metrics.L("endpoint", endpoint), metrics.L("code", fmt.Sprintf("%d", code))).Inc()
	m.mu.Unlock()
}

// cacheEvent counts hits and misses per cache ("response" or "db").
func (m *serviceMetrics) cacheEvent(cache string, hit bool) {
	event := "miss"
	if hit {
		event = "hit"
	}
	m.mu.Lock()
	m.reg.Counter("service", "cache_events_total",
		metrics.L("cache", cache), metrics.L("event", event)).Inc()
	m.mu.Unlock()
}

func (m *serviceMetrics) inc(name string) {
	m.mu.Lock()
	m.reg.Counter("service", name).Inc()
	m.mu.Unlock()
}

func (m *serviceMetrics) add(name string, n uint64) {
	m.mu.Lock()
	m.reg.Counter("service", name).Add(n)
	m.mu.Unlock()
}

// observeStage records one pipeline stage's wall latency in
// microseconds.
func (m *serviceMetrics) observeStage(stage string, micros int64) {
	m.mu.Lock()
	m.reg.VolatileHistogram("service", "stage_latency_us", latencyBounds,
		metrics.L("stage", stage)).Observe(micros)
	m.mu.Unlock()
}

// addInflight moves the in-flight request gauge by delta.
func (m *serviceMetrics) addInflight(delta int64) {
	m.mu.Lock()
	g := m.reg.VolatileGauge("service", "inflight_requests")
	g.Set(g.Value() + delta)
	m.mu.Unlock()
}

// snapshotAll captures every instrument, volatile ones included — the
// /metrics and /v1/stats view.
func (m *serviceMetrics) snapshotAll() metrics.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.SnapshotAll()
}
