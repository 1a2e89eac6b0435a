package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// An event is a callback scheduled at a point in virtual time. Events with
// equal timestamps execute in scheduling order (seq breaks ties), which
// keeps simulations deterministic.
//
// Events are pooled: the engine recycles the struct on a free list the
// moment the event fires or is cancelled, so steady-state scheduling
// performs no heap allocations. The generation counter distinguishes the
// lives of a recycled struct — a handle from a previous life can neither
// cancel nor observe the event now occupying the struct.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint64
	index int32 // position in the heap, -1 when popped, cancelled or free
}

// EventHandle allows a scheduled event to be cancelled before it fires.
// It is a small value; copying it is cheap and all copies refer to the
// same scheduled event.
type EventHandle struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing and removes it from the queue
// immediately, so cancelled events neither linger in the heap nor delay
// deadlock detection. Cancelling an event that already fired (or was
// already cancelled) is a no-op. Returns true if the event was still
// pending.
func (h EventHandle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return false
	}
	h.e.mCancelled.Inc()
	h.e.heapRemove(int(ev.index))
	h.e.recycle(ev)
	return true
}

// Pending reports whether the event is still waiting to fire.
func (h EventHandle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// ErrDeadlock is returned (wrapped) by Run when the event queue drains
// while spawned processes are still blocked: no event can ever wake them.
var ErrDeadlock = errors.New("sim: deadlock")

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; all model code runs on the engine's schedule, either as
// event callbacks or as processes interleaved one at a time.
type Engine struct {
	now Time
	// events is a four-ary indexed min-heap ordered by (at, seq). Four-ary
	// halves the tree depth of the binary heap and keeps children of a
	// node in one cache line, which measurably speeds the pop-heavy hot
	// loop; the index stored in each event makes Cancel an O(log n)
	// removal instead of a deferred tombstone.
	events []*event
	free   []*event // recycled event structs, reused by At
	seq    uint64

	seed uint64
	rngs map[string]*RNG

	procs   []*Proc // every spawned process in spawn order, kept until Shutdown
	alive   int     // processes whose body has not returned
	current *Proc   // process currently holding control, nil in event context

	// Tracer, when non-nil, receives a line for significant kernel
	// happenings (process start/stop, deadlock diagnosis). Model code can
	// also log through Engine.Tracef.
	Tracer func(t Time, line string)

	stopped bool

	// reg is the engine's metrics registry. Model layers built on the
	// engine (netsim, mpi) register their instruments here, so one
	// snapshot at the end of a run captures the whole stack of one
	// simulation cell. The kernel counters below live on dedicated
	// fields because they sit on the allocation-free scheduling hot
	// path.
	reg         *metrics.Registry
	mScheduled  *metrics.Counter // events handed to At/Schedule
	mCancelled  *metrics.Counter // events removed by Cancel before firing
	mRecycled   *metrics.Counter // event structs returned to the pool
	mSlabs      *metrics.Counter // eventChunk slabs the pool grew by
	mHeapDepth  *metrics.Gauge   // deepest simultaneous event queue
	mProcsTotal *metrics.Counter // processes spawned
	mProcsPeak  *metrics.Gauge   // most processes alive at once
}

// NewEngine returns an engine whose random streams derive from seed.
// The same seed always yields the same simulation.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		seed: seed,
		rngs: make(map[string]*RNG),
		reg:  metrics.NewRegistry(),
	}
	e.mScheduled = e.reg.Counter("sim", "events_scheduled_total")
	e.mCancelled = e.reg.Counter("sim", "events_cancelled_total")
	e.mRecycled = e.reg.Counter("sim", "events_recycled_total")
	e.mSlabs = e.reg.Counter("sim", "event_pool_slabs_total")
	e.mHeapDepth = e.reg.Gauge("sim", "event_heap_depth_max")
	e.mProcsTotal = e.reg.Counter("sim", "procs_spawned_total")
	e.mProcsPeak = e.reg.Gauge("sim", "procs_alive_max")
	return e
}

// Metrics returns the engine's registry. Layers built on the engine
// register their instruments here; one Snapshot captures the cell.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// RNG returns the named deterministic random stream, creating it on first
// use. Distinct names yield independent streams; the same (seed, name)
// pair always yields the same sequence.
func (e *Engine) RNG(name string) *RNG {
	r, ok := e.rngs[name]
	if !ok {
		r = NewRNG(streamSeed(e.seed, name))
		e.rngs[name] = r
	}
	return r
}

// eventChunk is how many event structs one pool refill allocates. Batching
// keeps warm-up allocation count low without holding more than a few KiB
// per idle engine.
const eventChunk = 64

// alloc returns an event struct, reusing a recycled one when available.
//
//detlint:hotpath
func (e *Engine) alloc() *event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	e.mSlabs.Inc()
	chunk := make([]event, eventChunk)
	for i := range chunk[1:] {
		chunk[1+i].index = -1
		e.free = append(e.free, &chunk[1+i])
	}
	chunk[0].index = -1
	return &chunk[0]
}

// recycle retires an event struct to the free list. Bumping the
// generation invalidates every handle to the life that just ended, and
// dropping fn releases the callback's closure to the collector.
//
//detlint:hotpath
func (e *Engine) recycle(ev *event) {
	e.mRecycled.Inc()
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay (>= 0) of virtual time.
//
//detlint:hotpath
func (e *Engine) Schedule(delay Duration, fn func()) EventHandle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now.Add(delay), fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
//
//detlint:hotpath
func (e *Engine) At(t Time, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	e.seq++
	e.mScheduled.Inc()
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.heapPush(ev)
	e.mHeapDepth.SetMax(int64(len(e.events)))
	return EventHandle{e: e, ev: ev, gen: ev.gen}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Tracef emits a formatted line to the engine's Tracer, if any.
func (e *Engine) Tracef(format string, args ...any) {
	if e.Tracer != nil {
		e.Tracer(e.now, fmt.Sprintf(format, args...))
	}
}

// Run executes events until the queue drains, Stop is called, or the
// virtual clock would pass until. Pass Forever to run to completion.
// It returns the final virtual time. If the queue drains while spawned
// processes remain blocked, Run returns an error wrapping ErrDeadlock
// that names the stuck processes.
func (e *Engine) Run(until Time) (Time, error) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		next := e.events[0]
		if next.at > until {
			e.now = until
			return e.now, nil
		}
		e.heapPop()
		e.now = next.at
		fn := next.fn
		e.recycle(next)
		fn()
	}
	if e.alive == 0 || e.stopped {
		return e.now, nil // no process can be blocked, or the caller asked to stop
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 {
		return e.now, fmt.Errorf("%w: %d process(es) blocked forever: %s",
			ErrDeadlock, len(blocked), strings.Join(blocked, ", "))
	}
	return e.now, nil
}

// blockedProcs lists the names of spawned processes that are parked with
// no pending wakeup, sorted for stable error messages.
func (e *Engine) blockedProcs() []string {
	var names []string
	for _, p := range e.procs {
		if p.state == procBlocked {
			names = append(names, p.describeBlocked())
		}
	}
	sort.Strings(names)
	return names
}

// Pending reports how many events are waiting in the queue. Cancelled
// events are removed eagerly, so the count is exact.
func (e *Engine) Pending() int { return len(e.events) }

// NextEventTime returns the timestamp of the earliest pending event, or
// Forever when the queue is empty. Shards uses it to pick conservative
// window boundaries without disturbing the queue.
//
//detlint:hotpath
func (e *Engine) NextEventTime() Time {
	if len(e.events) == 0 {
		return Forever
	}
	return e.events[0].at
}

// eventLess orders the heap by timestamp, breaking ties by scheduling
// order so simultaneous events run FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev into the four-ary heap.
//
//detlint:hotpath
func (e *Engine) heapPush(ev *event) {
	ev.index = int32(len(e.events))
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

// heapPop removes and returns the earliest event.
//
//detlint:hotpath
func (e *Engine) heapPop() *event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.events[0] = last
		last.index = 0
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// heapRemove deletes the event at heap position i (Cancel's eager
// removal path).
//
//detlint:hotpath
func (e *Engine) heapRemove(i int) {
	h := e.events
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i < n {
		e.events[i] = last
		last.index = int32(i)
		e.siftDown(i)
		if e.events[i] == last {
			e.siftUp(i)
		}
	}
	ev.index = -1
}

//detlint:hotpath
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

//detlint:hotpath
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], ev) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = ev
	ev.index = int32(i)
}
