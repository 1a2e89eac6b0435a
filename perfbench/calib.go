package main

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// The CPU time of the same work varies between runs on a shared host,
// and within one: its cores run up to half again as fast or as slow as
// the other tenants' load on caches, memory and sibling hyperthreads
// comes and goes, over periods of tens of milliseconds to minutes. So a
// gated run also times a fixed reference loop (refLoop, about 5 ms)
// between calls, at least every calInterval of CPU time, and scales the
// CPU time of every call and set-up to a nominal host, on which one
// reference loop takes refNominal:
//
//	reported = measured CPU time × refNominal ÷ local reference loop
//
// where the local reference loop is the mean of the samples taken just
// before and just after the call. The loop is written here, not taken
// from the repository, so no change to the program changes the
// yardstick.

// refNominal is the reference loop's CPU time on the nominal host:
// about what it takes on a 2.1 GHz Xeon core when the host is quiet, so
// the figures reported read as CPU time on such a core.
const refNominal = 3 * time.Millisecond

// calInterval is the most CPU time between two reference samples that
// do not have a call of more than calInterval between them.
const calInterval = 100 * time.Millisecond

// calSample is one timed reference loop, in process CPU time.
type calSample struct{ start, end time.Duration }

// calibrator holds a gated run's reference samples, in time order. A
// nil calibrator takes none and scales nothing.
type calibrator struct {
	samples []calSample
}

// sample times one reference loop. It collects garbage first: a
// collection the workload left running would take its CPU time from
// the loop and make the host look slower than it is.
func (c *calibrator) sample() {
	runtime.GC()
	t0 := cpuNow()
	if refLoop() != refChecksum {
		panic("reference loop: wrong checksum")
	}
	c.samples = append(c.samples, calSample{t0, cpuNow()})
}

// tick samples if calInterval has passed since the last sample.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	if n := len(c.samples); n == 0 || cpuNow()-c.samples[n-1].end >= calInterval {
		c.sample()
	}
}

// scale converts CPU time spent between process CPU times t0 and t1 to
// the nominal host's: refNominal over the mean of the last sample
// before t0, any samples inside, and the first sample after t1.
func (c *calibrator) scale(t0, t1 time.Duration) float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	s := c.samples
	lo := sort.Search(len(s), func(i int) bool { return s[i].end > t0 }) - 1
	hi := sort.Search(len(s), func(i int) bool { return s[i].start >= t1 })
	lo, hi = max(lo, 0), min(hi, len(s)-1)
	var sum time.Duration
	for _, x := range s[lo : hi+1] {
		sum += x.end - x.start
	}
	return refNominal.Seconds() / (sum.Seconds() / float64(hi-lo+1))
}

// summary describes the samples for the log: their quartiles in ms.
func (c *calibrator) summary() string {
	ms := make([]float64, len(c.samples))
	for i, x := range c.samples {
		ms[i] = (x.end - x.start).Seconds() * 1e3
	}
	return fmt.Sprintf("quartiles %.2f/%.2f/%.2f ms, nominal %.2f ms",
		quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.75), refNominal.Seconds()*1e3)
}

// refEvent is one event of the reference loop's queue.
type refEvent struct {
	at   float64
	id   int
	data [4]uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refChecksum is what refLoop returns; a different value means the loop
// did not do its fixed work.
const refChecksum = 0x2eb0b79b3f1b447e

// refLoop is the fixed reference work: a discrete-event loop over a
// binary heap of events, with a map of live events, random reads and
// writes over 1 MB, and floating-point arithmetic. It allocates nothing
// once warm (events are recycled), so the collector does not make its
// time depend on the heap the workload left behind. It returns a
// checksum of everything it computed.
func refLoop() uint64 {
	const (
		events  = 12000
		pending = 512
		words   = 1 << 17
	)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	if refTable == nil {
		refTable = make([]uint64, words)
		refLive = make(map[int]*refEvent, 2*pending)
		refQ = make(refQueue, 0, pending)
		refPool = make([]refEvent, pending+1)
	}
	table, live, q := refTable, refLive, refQ[:0]
	for i := range table {
		table[i] = next()
	}
	clear(live)
	for i := 0; i < pending; i++ {
		e := &refPool[i]
		*e = refEvent{at: float64(next()%1000) / 1e3, id: i}
		heap.Push(&q, e)
		live[e.id] = e
	}
	free := &refPool[pending]
	var sum uint64
	var acc float64
	for n := 0; n < events; n++ {
		e := heap.Pop(&q).(*refEvent)
		delete(live, e.id)
		for k := range e.data {
			j := next() & (words - 1)
			table[j] += e.data[k] ^ uint64(n)
			sum += table[j]
		}
		acc += math.Sqrt(e.at) * math.Log1p(float64(n))
		ne := free
		*ne = refEvent{at: e.at + float64(next()%1000)/1e3, id: pending + n}
		for k := range ne.data {
			ne.data[k] = next()
		}
		heap.Push(&q, ne)
		live[ne.id] = ne
		free = e
	}
	refQ = q
	return sum ^ math.Float64bits(acc) ^ uint64(len(live))
}

// The reference loop's storage, allocated by its first call.
var (
	refTable []uint64
	refLive  map[int]*refEvent
	refQ     refQueue
	refPool  []refEvent
)
