package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
)

// Shards runs one simulation as a set of logical processes (LPs), each
// a full Engine with its own event queue and RNG streams, synchronised
// by conservative time windows. It is the substrate for sharding one
// large run across cores.
//
// The synchronisation protocol is classic conservative lookahead: if
// every cross-LP interaction takes at least `lookahead` of virtual time
// to land (for a network model, the inter-switch link latency), then
// all LPs can execute the window [start, start+lookahead] concurrently
// without ever receiving a message in their past. Only the LPs with an
// event due in a window run it, so a window costs what they do, not
// what the whole LP set does. Cross-LP messages are buffered in
// per-source outboxes during the window and exchanged at the barrier.
//
// Determinism contract: the partition into LPs is fixed by the model
// (one LP per leaf switch, say) — the worker count only decides how
// many OS threads execute the LP set. Each LP's engine consumes only
// its own state, its own RNG streams (seeded SubSeed(seed, "shard/lp<i>"))
// and barrier-merged messages in a canonical order (timestamp, then
// source LP, then per-source posting order), so the simulation's output
// is byte-identical at any worker count, 1 included.
type Shards struct {
	lookahead Duration
	workers   int
	lps       []*Engine

	// outbox[src] collects the messages LP src posted this window. Only
	// the worker running LP src appends to it, so no locking is needed
	// during a window; the barrier drains all outboxes single-threaded.
	outbox [][]crossPost
	merged []crossPost

	// next[i] is LP i's next event time, so a window's start and its due
	// test read one array instead of every engine's heap. Run fills it,
	// runDue refreshes an LP's entry after running it, and exchange
	// lowers an entry when a post lands ahead of that LP's queue. Only
	// the worker running LP i writes next[i] during a window.
	next []Time

	// windows counts synchronisation windows executed (for reporting;
	// fewer, longer windows mean the lookahead is doing its job).
	windows uint64
}

// crossPost is one buffered cross-LP message.
type crossPost struct {
	at  Time
	src int32
	dst int32
	fn  func()
}

// NewShards builds a coordinator for nLPs logical processes seeded from
// seed, with the given conservative lookahead and worker count. A
// lookahead of zero or less is rejected: it would mean two LPs can
// affect each other in zero virtual time (a zero-latency cross-shard
// link), which makes conservative windows degenerate — such state must
// live inside one LP instead. workers <= 0 means GOMAXPROCS.
func NewShards(seed uint64, nLPs int, lookahead Duration, workers int) (*Shards, error) {
	if nLPs < 1 {
		return nil, fmt.Errorf("sim: shards need at least one LP, got %d", nLPs)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: lookahead %v must be positive: a zero-latency cross-shard link cannot be simulated conservatively (merge the endpoints into one LP)", lookahead)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nLPs {
		workers = nLPs
	}
	s := &Shards{
		lookahead: lookahead,
		workers:   workers,
		lps:       make([]*Engine, nLPs),
		outbox:    make([][]crossPost, nLPs),
		next:      make([]Time, nLPs),
	}
	for i := range s.lps {
		s.lps[i] = NewEngine(SubSeed(seed, "shard/lp"+strconv.Itoa(i)))
	}
	return s, nil
}

// LP returns the engine of logical process i. Model state owned by LP i
// must schedule exclusively on this engine, and only before Run or from
// LP i's own events: other LPs reach it through Post, which keeps the
// coordinator's record of LP i's next event time exact.
func (s *Shards) LP(i int) *Engine { return s.lps[i] }

// NumLPs returns the number of logical processes.
func (s *Shards) NumLPs() int { return len(s.lps) }

// Windows returns how many synchronisation windows Run executed.
func (s *Shards) Windows() uint64 { return s.windows }

// Post sends a cross-LP message: fn will run on LP dst's engine at
// virtual time at. It must be called from within LP src's execution
// (an event callback on s.LP(src)), and at must respect the lookahead:
// at >= src's current time plus the lookahead. Violating the bound panics —
// it means the model promised a cross-shard latency it did not keep,
// which would silently break the determinism contract.
//
//detlint:hotpath
func (s *Shards) Post(src, dst int, at Time, fn func()) {
	if horizon := s.lps[src].Now().Add(s.lookahead); at < horizon {
		panic(fmt.Sprintf("sim: cross-shard post from LP %d to LP %d at %v violates the lookahead horizon %v",
			src, dst, at, horizon))
	}
	s.outbox[src] = append(s.outbox[src], crossPost{at: at, src: int32(src), dst: int32(dst), fn: fn})
}

// Run executes the sharded simulation to completion: windows of
// lookahead width, the LPs with an event due in a window running in
// parallel, cross-LP messages exchanged at each barrier. It returns
// the largest LP clock (the makespan across shards). An error from any
// LP (deadlocked processes) aborts the run; the first error in LP
// order is returned so failures are as deterministic as successes.
func (s *Shards) Run() (Time, error) {
	errs := make([]error, len(s.lps))
	for i, lp := range s.lps {
		s.next[i] = lp.NextEventTime()
	}
	for {
		// The next window starts at the earliest pending event anywhere
		// (jumping idle gaps, e.g. a cluster-wide RTO sleep) and spans
		// one lookahead.
		start := Forever
		for _, t := range s.next {
			if t < start {
				start = t
			}
		}
		if start == Forever {
			break // all queues drained; outboxes are empty at every barrier exit
		}
		end := start.Add(s.lookahead)
		s.windows++
		s.runWindow(end, errs)
		for _, err := range errs {
			if err != nil {
				return s.maxNow(), err
			}
		}
		s.exchange()
	}
	return s.maxNow(), nil
}

// runWindow advances every LP with an event due by end, on one
// goroutine per worker. An LP with nothing due does not run, so its
// clock waits at its last event instead of jumping to end. Nothing
// reads it there: cross-LP posts land at or after end, and the
// makespan is the latest LP clock, which is some LP's last event
// either way.
func (s *Shards) runWindow(end Time, errs []error) {
	if s.workers == 1 {
		s.runDue(end, errs, 0, 1)
		return
	}
	var wg sync.WaitGroup
	wg.Add(s.workers)
	for w := 0; w < s.workers; w++ {
		go func(w int) {
			defer wg.Done()
			s.runDue(end, errs, w, s.workers)
		}(w)
	}
	wg.Wait()
}

// runDue advances LPs first, first+stride, ... to end, skipping each
// LP with no event due by then, and records each run LP's next event
// time. Each worker owns one such stripe; one worker owns them all.
//
//detlint:hotpath
func (s *Shards) runDue(end Time, errs []error, first, stride int) {
	for i := first; i < len(s.lps); i += stride {
		if s.next[i] <= end {
			lp := s.lps[i]
			_, errs[i] = lp.Run(end)
			s.next[i] = lp.NextEventTime()
		}
	}
}

// exchange drains every outbox into the destination engines in the
// canonical order: timestamp, then source LP, then per-source posting
// order (the stable sort preserves it). Delivery order into an engine
// decides its tie-breaking seq numbers, so this order is part of the
// determinism contract. A post that lands ahead of its destination's
// queued events lowers that LP's entry in next.
//
//detlint:hotpath
func (s *Shards) exchange() {
	s.merged = s.merged[:0]
	for src, out := range s.outbox {
		if len(out) == 0 {
			continue
		}
		s.merged = append(s.merged, out...)
		clear(out) // merged holds the closures now
		s.outbox[src] = out[:0]
	}
	if len(s.merged) == 0 {
		return
	}
	slices.SortStableFunc(s.merged, crossPostOrder)
	for i := range s.merged {
		m := &s.merged[i]
		s.lps[m.dst].At(m.at, m.fn)
		m.fn = nil // release the closure once handed over
		if m.at < s.next[m.dst] {
			s.next[m.dst] = m.at
		}
	}
}

// crossPostOrder orders merged posts by timestamp, then source LP.
func crossPostOrder(a, b crossPost) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

// maxNow returns the latest LP clock.
func (s *Shards) maxNow() Time {
	var max Time
	for _, lp := range s.lps {
		if t := lp.Now(); t > max {
			max = t
		}
	}
	return max
}
