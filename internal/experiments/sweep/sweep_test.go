package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// value wraps a plain value as a cell result with no snapshot.
func value[T any](v T) (T, metrics.Snapshot, error) { return v, metrics.Snapshot{}, nil }

func TestMapKeepsIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(workers, 100, nil, func(i int) (int, metrics.Snapshot, error) { return value(i * i) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunExecutesEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		counts := make([]int32, 257)
		if _, err := Map(workers, len(counts), nil, func(i int) (struct{}, metrics.Snapshot, error) {
			atomic.AddInt32(&counts[i], 1)
			return value(struct{}{})
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, c)
			}
		}
	}
}

// cellSnapshot is cell i's instrument snapshot: a counter, a gauge and
// a histogram whose values depend on i, so a fold that dropped,
// repeated or mislabelled a cell would change the aggregate.
func cellSnapshot(i int) metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Counter("cell", "work_total").Add(uint64(i + 1))
	reg.Gauge("cell", "peak").SetMax(int64(i % 5))
	reg.Histogram("cell", "size", []int64{2, 8}).Observe(int64(i))
	return reg.Snapshot()
}

// TestRunFirstErrorWins checks the reported error is the lowest-indexed
// cell's, independent of scheduling, that later cells still run, and
// that a failed sweep folds nothing.
func TestRunFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int32
		agg := metrics.NewAggregate()
		_, err := Map(workers, 20, agg, func(i int) (int, metrics.Snapshot, error) {
			atomic.AddInt32(&ran, 1)
			if i == 7 || i == 13 {
				return 0, metrics.Snapshot{}, fmt.Errorf("cell %d failed", i)
			}
			return i, cellSnapshot(i), nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 7's", workers, err)
		}
		if ran != 20 {
			t.Fatalf("workers=%d: only %d cells ran", workers, ran)
		}
		if s := agg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
			t.Fatalf("workers=%d: failed sweep folded %+v", workers, s)
		}
	}
}

func TestMapReturnsNilOnError(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := Map(4, 10, nil, func(i int) (int, metrics.Snapshot, error) {
		if i == 3 {
			return 0, metrics.Snapshot{}, sentinel
		}
		return value(i)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
}

// TestObserverDeterministicAcrossWorkers runs the same sweep at several
// worker counts, with cells that report nothing, and requires
// byte-identical folds of Map's own observation of the sweep: the
// queue-depth multiset is {0..n-1} no matter who picks what.
func TestObserverDeterministicAcrossWorkers(t *testing.T) {
	const n = 37
	var want metrics.Snapshot
	for _, workers := range []int{1, 2, 4, 8} {
		agg := metrics.NewAggregate()
		if _, err := Map(workers, n, agg, func(i int) (int, metrics.Snapshot, error) { return value(i) }); err != nil {
			t.Fatal(err)
		}
		s := agg.Snapshot()
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
		if workers == 1 {
			want = s
		} else if !reflect.DeepEqual(want, s) {
			t.Errorf("workers=%d: snapshot differs from serial baseline", workers)
		}
	}
}

// TestObserverVolatileExcluded checks that Map's observation of a
// parallel sweep holds nothing scheduling-dependent: with cells that
// report nothing, the fold is exactly the sweep's two counters and its
// queue-depth histogram — no worker_cells_max, no gauge of any kind.
func TestObserverVolatileExcluded(t *testing.T) {
	agg := metrics.NewAggregate()
	if _, err := Map(4, 16, agg, func(i int) (int, metrics.Snapshot, error) { return value(i) }); err != nil {
		t.Fatal(err)
	}
	s := agg.Snapshot()
	if _, ok := s.Gauge("sweep", "worker_cells_max"); ok {
		t.Error("volatile worker_cells_max leaked into the fold")
	}
	if len(s.Gauges) != 0 {
		t.Errorf("gauges %+v, want none", s.Gauges)
	}
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Key())
	}
	for _, h := range s.Histograms {
		names = append(names, h.Key())
	}
	if want := []string{"sweep/cells_total", "sweep/sweeps_total", "sweep/queue_depth"}; !reflect.DeepEqual(names, want) {
		t.Errorf("fold holds %v, want exactly %v", names, want)
	}
}

// TestMapFoldsDeterministicallyAcrossWorkers runs the same sweep at
// several worker counts and requires byte-identical folds: every cell's
// snapshot, then the sweep's own counters, whose queue-depth multiset
// is {0..n-1} no matter who picks what. A scheduling-dependent
// instrument would break the equality.
func TestMapFoldsDeterministicallyAcrossWorkers(t *testing.T) {
	const n = 37
	var want metrics.Snapshot
	for _, workers := range []int{1, 2, 8} {
		agg := metrics.NewAggregate()
		if _, err := Map(workers, n, agg, func(i int) (int, metrics.Snapshot, error) {
			return i, cellSnapshot(i), nil
		}); err != nil {
			t.Fatal(err)
		}
		s := agg.Snapshot()
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
		if v, _ := s.Counter("cell", "work_total"); v != n*(n+1)/2 {
			t.Errorf("workers=%d: cell work_total = %d, want %d", workers, v, n*(n+1)/2)
		}
		if v, _ := s.Gauge("cell", "peak"); v != 4 {
			t.Errorf("workers=%d: cell peak = %d, want 4", workers, v)
		}
		if len(s.Gauges) != 1 {
			t.Errorf("workers=%d: gauges %+v, want only the cells' own", workers, s.Gauges)
		}
		if workers == 1 {
			want = s
		} else if !reflect.DeepEqual(want, s) {
			t.Errorf("workers=%d: fold differs from the serial one", workers)
		}
	}
}

// TestMapNilAggregate checks that a nil aggregate runs every cell and
// returns the same values as a folding sweep: dropping the snapshots
// changes nothing else.
func TestMapNilAggregate(t *testing.T) {
	hits := make([]bool, 23)
	cell := func(i int) (int, metrics.Snapshot, error) {
		hits[i] = true
		return i * 3, cellSnapshot(i), nil
	}
	bare, err := Map(3, len(hits), nil, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Errorf("cell %d never ran", i)
		}
	}
	folded, err := Map(3, len(hits), metrics.NewAggregate(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, folded) {
		t.Errorf("values with a nil aggregate %v differ from a folding sweep's %v", bare, folded)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

// TestRunBoundsConcurrency verifies no more than the requested worker
// count executes cells at once.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int32
	if _, err := Map(workers, 64, nil, func(i int) (struct{}, metrics.Snapshot, error) {
		n := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		for j := 0; j < 1000; j++ { // widen the overlap window
			_ = j
		}
		atomic.AddInt32(&active, -1)
		return value(struct{}{})
	}); err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("observed %d concurrent cells, worker cap is %d", peak, workers)
	}
}
