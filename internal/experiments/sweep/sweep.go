// Package sweep is the deterministic parallel execution layer under the
// experiment pipeline and the prediction service. A sweep enumerates
// independent simulation cells — one (placement, op) benchmark, one
// collective row, one PEVPM Monte-Carlo replication — as indexed tasks,
// executes them across a fixed-size worker pool, and surfaces results
// in canonical cell order.
//
// Determinism is structural, not scheduled: every cell builds its own
// simulation engine seeded from (root seed, cell key) via sim.SubSeed,
// writes only to its own result slot, and the merge happens in index
// order on the caller's goroutine. The outcome is therefore bit-identical
// for any worker count, including 1 — the serial escape hatch CI diffs
// against.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Workers resolves a requested worker count: n > 0 is taken as-is,
// anything else (the "default" zero value) becomes GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// depthBounds buckets sweep/queue_depth.
var depthBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// Map executes cells 0..n-1 on up to workers goroutines and returns
// their values in index order. Every cell runs exactly once regardless
// of other cells' failures; the returned error is the lowest-indexed
// cell's, so the reported failure does not depend on scheduling, and
// the values are only returned when it is nil. workers <= 1 (or n <= 1)
// degenerates to an in-order loop on the calling goroutine.
//
// With agg non-nil and no error, Map folds every cell's snapshot into
// agg in index order on the calling goroutine, then its own counters:
// sweep/sweeps_total, sweep/cells_total and sweep/queue_depth, the
// remaining-queue depth at each cell pickup. Pickups pop a shared
// index, so the depths are exactly {0..n-1} at every worker count and
// Map records them without watching the workers. With agg nil the cell
// snapshots are dropped.
func Map[T any](workers, n int, agg *metrics.Aggregate, cell func(i int) (T, metrics.Snapshot, error)) ([]T, error) {
	out := make([]T, n)
	snaps := make([]metrics.Snapshot, n)
	errs := make([]error, n)
	run := func(i int) { out[i], snaps[i], errs[i] = cell(i) }
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if agg != nil {
		for _, s := range snaps {
			agg.Merge(s)
		}
		reg := metrics.NewRegistry()
		sweeps, cells := reg.Counter("sweep", "sweeps_total"), reg.Counter("sweep", "cells_total")
		depth := reg.Histogram("sweep", "queue_depth", depthBounds)
		if n > 0 {
			sweeps.Inc()
			cells.Add(uint64(n))
		}
		for d := 0; d < n; d++ {
			depth.Observe(int64(d))
		}
		agg.Merge(reg.Snapshot())
	}
	return out, nil
}
