package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestShardsValidation(t *testing.T) {
	// Zero-latency cross-shard links cannot be simulated conservatively:
	// the lookahead must be strictly positive.
	if _, err := NewShards(1, 2, 0, 1); err == nil {
		t.Fatal("zero lookahead accepted")
	} else if !strings.Contains(err.Error(), "zero-latency") {
		t.Errorf("error should explain the zero-latency rejection: %v", err)
	}
	if _, err := NewShards(1, 2, -Duration(Microsecond), 1); err == nil {
		t.Fatal("negative lookahead accepted")
	}
	if _, err := NewShards(1, 0, Duration(Microsecond), 1); err == nil {
		t.Fatal("zero LPs accepted")
	}
	s, err := NewShards(1, 4, Duration(Microsecond), 99)
	if err != nil {
		t.Fatal(err)
	}
	if s.workers != 4 {
		t.Errorf("workers should cap at the LP count, got %d", s.workers)
	}
	if s.NumLPs() != 4 || s.lookahead != Duration(Microsecond) {
		t.Error("accessors broken")
	}
}

func TestShardsCrossPostAtExactHorizon(t *testing.T) {
	// A message posted at exactly now+lookahead is legal and must land
	// at exactly that virtual time on the destination LP.
	const L = Duration(10 * Microsecond)
	s, err := NewShards(7, 2, L, 1)
	if err != nil {
		t.Fatal(err)
	}
	var arrived Time
	start := TimeFromSeconds(0.001)
	s.LP(0).At(start, func() {
		s.Post(0, 1, s.LP(0).Now().Add(L), func() {
			arrived = s.LP(1).Now()
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := start.Add(L); arrived != want {
		t.Fatalf("horizon message arrived at %v, want %v", arrived, want)
	}
	if s.Windows() == 0 {
		t.Error("run should have executed at least one window")
	}
}

func TestShardsPostBelowHorizonPanics(t *testing.T) {
	const L = Duration(10 * Microsecond)
	s, err := NewShards(7, 2, L, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.LP(0).At(TimeFromSeconds(0.001), func() {
		defer func() {
			if recover() == nil {
				t.Error("post one tick below the lookahead horizon did not panic")
			}
		}()
		s.Post(0, 1, s.LP(0).Now().Add(L)-1, func() {})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// shardRingRun drives a small stochastic model over the Shards
// coordinator and serialises everything observable about it: per-LP
// event logs, RNG-drawn payloads, final clocks and metrics counters.
// Two runs are byte-identical iff the simulation is deterministic.
func shardRingRun(t *testing.T, seed uint64, lps, workers int) string {
	t.Helper()
	const L = Duration(5 * Microsecond)
	s, err := NewShards(seed, lps, L, workers)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, lps)
	var hop func(lp, hops int, token uint64)
	hop = func(lp, hops int, token uint64) {
		e := s.LP(lp)
		logs[lp] = append(logs[lp], fmt.Sprintf("t=%v token=%d hops=%d", e.Now(), token, hops))
		if hops == 0 {
			return
		}
		// Mix in LP-local randomness both for the routing delay and the
		// token, so any cross-worker interleaving of RNG streams would
		// change the transcript.
		rng := e.RNG("hop")
		delay := L + Duration(rng.Intn(int(L)))
		next := (lp + 1 + rng.Intn(lps-1)) % lps
		tok := token ^ rng.Uint64()
		s.Post(lp, next, e.Now().Add(delay), func() { hop(next, hops-1, tok) })
	}
	for i := 0; i < lps; i++ {
		lp := i
		s.LP(lp).At(Time(lp+1)*Time(Microsecond), func() { hop(lp, 12, uint64(lp)*977) })
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v windows=%d\n", end, s.Windows())
	for i, lines := range logs {
		fmt.Fprintf(&b, "lp%d now=%v\n", i, s.LP(i).Now())
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
		snap := s.LP(i).Metrics().Snapshot()
		sched, _ := snap.Counter("sim", "events_scheduled_total")
		fmt.Fprintf(&b, "  scheduled=%d\n", sched)
	}
	return b.String()
}

func TestShardsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// The determinism contract: worker count is an execution detail.
	// Run the same seeded model serially and at several parallelism
	// levels (the -race build makes this a concurrency test too) and
	// require byte-identical transcripts.
	serial := shardRingRun(t, 42, 6, 1)
	if !strings.Contains(serial, "token=") {
		t.Fatal("model produced no transcript")
	}
	for _, workers := range []int{2, 3, 6} {
		got := shardRingRun(t, 42, 6, workers)
		if got != serial {
			t.Fatalf("workers=%d transcript differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
	// And a different seed must give a different transcript — the equality
	// above is not vacuous.
	if other := shardRingRun(t, 43, 6, 1); other == serial {
		t.Error("different seeds produced identical transcripts")
	}
}

// TestDeepQueueFiresInOrder: the event queue absorbs very deep queues (a
// 2048-node run holds hundreds of thousands of pending events) and still
// fires them in (at, seq) order. Timestamps are scattered and repeated,
// so both the timestamp order and the FIFO tie-break are exercised.
func TestDeepQueueFiresInOrder(t *testing.T) {
	e := NewEngine(1)
	const n = 120_000
	type fired struct {
		at  Time
		seq int
	}
	order := make([]fired, 0, n)
	rng := NewRNG(7)
	for i := 0; i < n; i++ {
		i := i
		e.At(Time(rng.Intn(n/8)+1), func() { order = append(order, fired{e.Now(), i}) })
	}
	if depth, _ := e.Metrics().Snapshot().Gauge("sim", "event_heap_depth_max"); depth != n {
		t.Errorf("heap depth max = %d, want %d", depth, n)
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("fired %d of %d", len(order), n)
	}
	for i := 1; i < n; i++ {
		a, b := order[i-1], order[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("event %d (at %v, seq %d) fired before event %d (at %v, seq %d)",
				a.seq, a.at, a.seq, b.seq, b.at, b.seq)
		}
	}
}

// TestShardsPostLandsAheadOfQueuedEvents: a post that lands on an LP
// ahead of the events already queued there opens its own window. LP 0
// posts to LP 1 at L, LP 1 replies to LP 0 at 2L, and LP 0 also holds a
// local event at 5L; the reply forwards to LP 1 at 3L, ahead of LP 1's
// local event at 4L. A coordinator that kept each LP's next event time
// at its queued events would skip the reply's window, run LP 0's 5L
// event first and then schedule the reply into LP 0's past.
func TestShardsPostLandsAheadOfQueuedEvents(t *testing.T) {
	const L = Duration(10 * Microsecond)
	for _, workers := range []int{1, 2} {
		s, err := NewShards(3, 2, L, workers)
		if err != nil {
			t.Fatal(err)
		}
		logs := make([][]string, 2) // per LP: each runs on one worker at a time
		note := func(lp int, what string) {
			logs[lp] = append(logs[lp], fmt.Sprintf("%s@%v", what, s.LP(lp).Now()))
		}
		at := func(n int) Time { return Time(0).Add(Duration(n) * L) }
		s.LP(0).At(at(0), func() {
			note(0, "kick")
			s.Post(0, 1, at(1), func() {
				note(1, "post")
				s.Post(1, 0, at(2), func() {
					note(0, "reply")
					s.Post(0, 1, at(3), func() { note(1, "forward") })
				})
			})
		})
		s.LP(0).At(at(5), func() { note(0, "local") })
		s.LP(1).At(at(4), func() { note(1, "local") })
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := [][]string{
			{"kick@" + at(0).String(), "reply@" + at(2).String(), "local@" + at(5).String()},
			{"post@" + at(1).String(), "forward@" + at(3).String(), "local@" + at(4).String()},
		}
		for lp := range want {
			if got := strings.Join(logs[lp], " "); got != strings.Join(want[lp], " ") {
				t.Errorf("workers %d, LP %d ran %q, want %q", workers, lp, got, strings.Join(want[lp], " "))
			}
		}
	}
}
