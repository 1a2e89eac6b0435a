package service

import (
	"runtime"
	"sync"
)

// pool is the shared engine pool: a fixed set of workers that run
// Monte-Carlo replications (and detail evaluations) from all concurrent
// requests. Batching every request's replications onto one pool bounds
// total simulation parallelism at the configured worker count no matter
// how many clients are connected — and because every replication seeds
// its own RNG substream via sim.SubSeed, the interleaving the pool
// happens to choose can never change a prediction.
type pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	// sendMu lets close() wait out in-flight submits before closing the
	// channel: submitters hold the read side for the duration of the
	// send, close takes the write side. Workers never touch it, so a
	// submitter blocked on a full buffer cannot deadlock the drain.
	sendMu sync.RWMutex
	closed bool

	qmu     sync.Mutex
	queued  int // tasks submitted but not yet started
	workers int
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{
		// A deep buffer so bursts of replications enqueue without
		// blocking the submitting request goroutine.
		tasks:   make(chan func(), 16*workers),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// submit enqueues task and returns the queue depth observed at submit
// time (for the queue-depth histogram). Safe for concurrent use.
// Tasks must not themselves submit to the pool: with every worker
// blocked on a child task the pool would deadlock. Requests only ever
// submit from handler goroutines, which are not pool workers.
func (p *pool) submit(task func()) int {
	p.sendMu.RLock()
	if p.closed {
		p.sendMu.RUnlock()
		// After shutdown: run inline so late work still completes.
		task()
		return 0
	}
	p.qmu.Lock()
	p.queued++
	depth := p.queued
	p.qmu.Unlock()

	p.tasks <- func() {
		p.qmu.Lock()
		p.queued--
		p.qmu.Unlock()
		task()
	}
	p.sendMu.RUnlock()
	return depth
}

// close stops the workers after draining queued tasks. Call only after
// the HTTP server has drained its handlers (graceful-shutdown order).
func (p *pool) close() {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.sendMu.Unlock()
	p.wg.Wait()
}
