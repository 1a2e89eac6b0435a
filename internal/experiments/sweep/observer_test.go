package sweep

import (
	"reflect"
	"testing"
)

// TestObserverDeterministicAcrossWorkers runs the same sweep at several
// worker counts and requires byte-identical deterministic snapshots:
// the queue-depth multiset is {0..n-1} no matter who picks what.
func TestObserverDeterministicAcrossWorkers(t *testing.T) {
	const n = 37
	var want any
	for _, workers := range []int{1, 2, 4, 8} {
		obs := NewObserver()
		if err := RunObserved(workers, n, obs, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		s := obs.Snapshot()
		if v, _ := s.Counter("sweep", "cells_total"); v != n {
			t.Errorf("workers=%d: cells_total = %d, want %d", workers, v, n)
		}
		if v, _ := s.Counter("sweep", "sweeps_total"); v != 1 {
			t.Errorf("workers=%d: sweeps_total = %d, want 1", workers, v)
		}
		h, ok := s.Histogram("sweep", "queue_depth")
		if !ok || h.Count != n {
			t.Fatalf("workers=%d: queue_depth count = %d, want %d", workers, h.Count, n)
		}
		if h.Sum != int64(n*(n-1)/2) { // sum of 0..n-1
			t.Errorf("workers=%d: queue_depth sum = %d, want %d", workers, h.Sum, n*(n-1)/2)
		}
		if want == nil {
			want = s
		} else if !reflect.DeepEqual(want, s) {
			t.Errorf("workers=%d: snapshot differs from serial baseline", workers)
		}
	}
}

// TestObserverVolatileExcluded checks worker_cells_max stays out of the
// deterministic snapshot but is kept in the registry's full snapshot.
func TestObserverVolatileExcluded(t *testing.T) {
	obs := NewObserver()
	if err := RunObserved(4, 16, obs, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.Snapshot().Gauge("sweep", "worker_cells_max"); ok {
		t.Error("volatile worker_cells_max leaked into the deterministic snapshot")
	}
	v, ok := obs.reg.SnapshotAll().Gauge("sweep", "worker_cells_max")
	if !ok || v < 1 {
		t.Errorf("worker_cells_max = %d (ok=%v), want >= 1 in SnapshotAll", v, ok)
	}
}

// TestRunObservedNilObserver checks the nil observer path (what Run
// uses) still executes every cell.
func TestRunObservedNilObserver(t *testing.T) {
	hits := make([]bool, 23)
	if err := RunObserved(3, len(hits), nil, func(i int) error { hits[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Errorf("cell %d never ran", i)
		}
	}
}
