package sweep

import (
	"sync"

	"repro/internal/metrics"
)

// Observer instruments the worker pool. Its deterministic series are
// scheduling-independent by construction: cells_total and sweeps_total
// count work, not workers, and queue_depth observes the depth of the
// remaining-cell queue at each pickup — the pickups pop a shared
// counter, so the multiset of observed depths is exactly {0..n-1} for
// every worker count. Only worker_cells_max (how unevenly cells landed
// on goroutines) genuinely depends on scheduling; it is registered
// volatile, so it never reaches deterministic snapshots or exports.
type Observer struct {
	reg     *metrics.Registry
	mSweeps *metrics.Counter
	mCells  *metrics.Counter
	mDepth  *metrics.Histogram
	mWorker *metrics.Gauge
}

// NewObserver returns an observer with its own registry (the pool runs
// on the caller's goroutines; there is no engine to attach to).
func NewObserver() *Observer {
	reg := metrics.NewRegistry()
	return &Observer{
		reg:     reg,
		mSweeps: reg.Counter("sweep", "sweeps_total"),
		mCells:  reg.Counter("sweep", "cells_total"),
		mDepth:  reg.Histogram("sweep", "queue_depth", []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
		mWorker: reg.VolatileGauge("sweep", "worker_cells_max"),
	}
}

// Snapshot returns the deterministic instruments.
func (o *Observer) Snapshot() metrics.Snapshot { return o.reg.Snapshot() }

// begin records the start of one sweep of n cells.
func (o *Observer) begin(n int) {
	if o == nil {
		return
	}
	o.mSweeps.Inc()
	o.mCells.Add(uint64(n))
}

// pickup records one cell leaving the queue with depth cells behind it.
// Callers serialise it (the pool calls it under the queue mutex).
func (o *Observer) pickup(depth int) {
	if o == nil {
		return
	}
	o.mDepth.Observe(int64(depth))
}

// workerDone records how many cells one worker goroutine executed.
func (o *Observer) workerDone(cells int) {
	if o == nil {
		return
	}
	o.mWorker.SetMax(int64(cells))
}

// RunObserved is Run with pool instrumentation; obs may be nil.
func RunObserved(workers, n int, obs *Observer, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	obs.begin(n)
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			obs.pickup(n - 1 - i)
			if err := cell(i); err != nil && first == nil {
				first = err
			}
		}
		obs.workerDone(n)
		return first
	}

	errs := make([]error, n)
	counts := make([]int, workers) // cells executed per worker goroutine
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				if i < n {
					// Observed under the queue mutex: depth is a pure
					// function of the pop index, so the multiset of
					// observations is worker-count independent.
					obs.pickup(n - 1 - i)
				}
				mu.Unlock()
				if i >= n {
					return
				}
				counts[w]++
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, c := range counts {
		obs.workerDone(c)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapObserved is Map with pool instrumentation; obs may be nil.
func MapObserved[T any](workers, n int, obs *Observer, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := RunObserved(workers, n, obs, func(i int) error {
		v, err := cell(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
