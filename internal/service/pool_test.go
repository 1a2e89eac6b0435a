package service

import (
	"sync"
	"sync/atomic"
	"testing"
)

// run executes n tasks on the pool and blocks until all complete.
func (p *pool) run(n int, task func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.submit(func() {
			defer wg.Done()
			task(i)
		})
	}
	wg.Wait()
}

func TestPoolRunsEverything(t *testing.T) {
	p := newPool(3)
	defer p.close()
	var done atomic.Int64
	p.run(100, func(i int) { done.Add(1) })
	if got := done.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPoolOrderIndependence(t *testing.T) {
	// Results land by index, so scheduling cannot reorder them.
	p := newPool(4)
	defer p.close()
	out := make([]int, 64)
	p.run(64, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestPoolCloseIsIdempotentAndRunsLateWork(t *testing.T) {
	p := newPool(2)
	p.close()
	p.close() // second close must not panic
	var ran atomic.Bool
	p.submit(func() { ran.Store(true) }) // after close: runs inline
	if !ran.Load() {
		t.Fatal("post-close submit was dropped")
	}
}

func TestPoolDefaultsWorkers(t *testing.T) {
	p := newPool(0)
	defer p.close()
	if p.workers < 1 {
		t.Fatalf("workers = %d", p.workers)
	}
}
