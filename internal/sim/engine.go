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
// keeps simulations deterministic. The queue holds events by value, so
// scheduling one allocates nothing once the queue's array has grown.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// ErrDeadlock is returned (wrapped) by Run when the event queue drains
// while spawned processes are still blocked: no event can ever wake them.
var ErrDeadlock = errors.New("sim: deadlock")

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; all model code runs on the engine's schedule, either as
// event callbacks or as processes interleaved one at a time.
type Engine struct {
	now Time
	// next holds one queued event outside the heap (when hasNext): an
	// event scheduled while the slot is free and earlier than the
	// heap's top goes there, so the common schedule-then-run-next step
	// skips both sifts. Run and NextEventTime take the earlier of the
	// slot and the heap's top by (at, seq), so the order stays exact.
	next    event
	hasNext bool
	// events is a four-ary min-heap ordered by (at, seq). Four-ary
	// halves the tree depth of the binary heap and keeps the children of
	// a node close together, which speeds the pop-heavy hot loop.
	events []event
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

	// reg is the engine's metrics registry. Model layers built on the
	// engine (netsim, mpi) register their instruments here, so one
	// snapshot at the end of a run captures the whole stack of one
	// simulation cell. The kernel counters below live on dedicated
	// fields because they sit on the allocation-free scheduling hot
	// path.
	reg         *metrics.Registry
	mScheduled  *metrics.Counter // events handed to At/Schedule
	mHeapDepth  *metrics.Gauge   // deepest simultaneous event queue, slot included
	mProcsTotal *metrics.Counter // processes spawned
	mProcsPeak  *metrics.Gauge   // most processes alive at once
	// mResumes counts switches into process bodies. It is registered
	// at the first Spawn, so an engine that runs no process (a network
	// model on its own) keeps the instruments it always had.
	mResumes *metrics.Counter
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

// Schedule runs fn after delay (>= 0) of virtual time.
//
//detlint:hotpath
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now.Add(delay), fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
//
//detlint:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", t, e.now))
	}
	e.seq++
	e.mScheduled.Inc()
	ev := event{at: t, seq: e.seq, fn: fn}
	// Its seq is the newest, so it precedes the heap's top only if it
	// is earlier.
	if !e.hasNext && (len(e.events) == 0 || t < e.events[0].at) {
		e.next, e.hasNext = ev, true
	} else {
		e.heapPush(ev)
	}
	e.mHeapDepth.SetMax(int64(e.queued()))
}

// queued returns how many events are pending, the slot included.
//
//detlint:hotpath
func (e *Engine) queued() int {
	if e.hasNext {
		return len(e.events) + 1
	}
	return len(e.events)
}

// Tracef emits a formatted line to the engine's Tracer, if any.
func (e *Engine) Tracef(format string, args ...any) {
	if e.Tracer != nil {
		e.Tracer(e.now, fmt.Sprintf(format, args...))
	}
}

// Run executes events until the queue drains or the virtual clock would
// pass until. Pass Forever to run to completion.
// It returns the final virtual time. If the queue drains while spawned
// processes remain blocked, Run returns an error wrapping ErrDeadlock
// that names the stuck processes.
func (e *Engine) Run(until Time) (Time, error) {
	for {
		var ev event
		if e.slotFirst() {
			if e.next.at > until {
				e.now = until
				return e.now, nil
			}
			ev = e.next
			e.next, e.hasNext = event{}, false
		} else if len(e.events) > 0 {
			if e.events[0].at > until {
				e.now = until
				return e.now, nil
			}
			ev = e.heapPop()
		} else {
			break
		}
		e.now = ev.at
		ev.fn()
	}
	if e.alive == 0 {
		return e.now, nil // no process can be blocked
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

// NextEventTime returns the timestamp of the earliest pending event, or
// Forever when the queue is empty. Shards uses it to pick conservative
// window boundaries without disturbing the queue.
//
//detlint:hotpath
func (e *Engine) NextEventTime() Time {
	switch {
	case e.slotFirst():
		return e.next.at
	case len(e.events) > 0:
		return e.events[0].at
	}
	return Forever
}

// slotFirst reports whether the slot holds the earliest queued event.
//
//detlint:hotpath
func (e *Engine) slotFirst() bool {
	return e.hasNext && (len(e.events) == 0 || eventLess(&e.next, &e.events[0]))
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
func (e *Engine) heapPush(ev event) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

// heapPop removes and returns the earliest event. It clears the slot it
// vacates, so the queue keeps no popped callback alive.
//
//detlint:hotpath
func (e *Engine) heapPop() event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

//detlint:hotpath
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
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
			if eventLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !eventLess(&h[min], &ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}
