package sim

import (
	"fmt"
	"testing"
)

// orderModel schedules random events from inside handlers and checks,
// as each runs, that it is the earliest pending event by (time,
// scheduling order): the exact order the slot and the heap together
// must keep. Delays mix zero (ties with the current instant), small
// values (the slot's case: earlier than the heap's top) and large ones
// (deep heap entries).
type orderModel struct {
	t       *testing.T
	e       *Engine
	rng     *RNG
	order   uint64          // scheduling order, as the engine's seq counts it
	pending map[uint64]Time // scheduled, not yet run: order → time
	ran     int
	budget  int // events the model may still schedule
}

func (m *orderModel) schedule(delay Duration) {
	m.order++
	id, at := m.order, m.e.Now().Add(delay)
	m.pending[id] = at
	m.e.At(at, func() { m.run(id, at) })
}

func (m *orderModel) delay() Duration {
	switch m.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return Duration(m.rng.Intn(3)) * Microsecond
	case 2:
		return Duration(m.rng.Intn(50)) * Microsecond
	}
	return Duration(m.rng.Intn(5000)) * Microsecond
}

func (m *orderModel) run(id uint64, at Time) {
	if m.e.Now() != at {
		m.t.Fatalf("event %d ran at %v, scheduled for %v", id, m.e.Now(), at)
	}
	for other, t := range m.pending {
		if t < at || t == at && other < id {
			m.t.Fatalf("event %d (at %v) ran before event %d (at %v)", id, at, other, t)
		}
	}
	delete(m.pending, id)
	m.ran++
	for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
		m.budget--
		m.schedule(m.delay())
	}
}

// TestEventOrderProperty: random schedules made from handlers run in
// (time, scheduling order) order, whether one Run drains the queue or
// random Run(until) calls cut it into pieces, and every event runs
// exactly once. NextEventTime names the earliest pending event at every
// cut.
func TestEventOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, cut := range []bool{false, true} {
			m := &orderModel{t: t, e: NewEngine(seed), rng: NewRNG(seed), pending: map[uint64]Time{}, budget: 2000}
			for i := 0; i < 8; i++ {
				m.schedule(m.delay())
			}
			for len(m.pending) > 0 {
				until := Forever
				if cut {
					until = m.e.Now().Add(Duration(m.rng.Intn(200)) * Microsecond)
				}
				if _, err := m.e.Run(until); err != nil {
					t.Fatal(err)
				}
				earliest := Forever
				for _, at := range m.pending {
					earliest = min(earliest, at)
				}
				if got := m.e.NextEventTime(); got != earliest {
					t.Fatalf("seed %d: NextEventTime = %v, earliest pending %v", seed, got, earliest)
				}
				if len(m.pending) > 0 && m.e.Now() != until {
					t.Fatalf("seed %d: Run(%v) stopped at %v with events pending", seed, until, m.e.Now())
				}
			}
			if m.ran != int(m.order) {
				t.Errorf("seed %d: %d of %d events ran", seed, m.ran, m.order)
			}
		}
	}
}

// shardOrderRun drives a sharded model whose handlers schedule random
// local events and post random cross-LP ones, and returns its per-LP
// transcript. Each event checks it runs at its own time, that its LP's
// clock never goes back, and that local events of equal time run in
// scheduling order; the run checks every event ran exactly once.
func shardOrderRun(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	const lps, L = 4, 10 * Microsecond
	s, err := NewShards(seed, lps, L, workers)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, lps)
	last := make([]Time, lps)
	lastLocal := make([]uint64, lps) // scheduling order of the last local event run at last[lp]
	orders := make([]uint64, lps)
	budgets := make([]int, lps)
	// Per-LP counts, so workers running different LPs share nothing.
	scheduled, ran := make([]int, lps), make([]int, lps)
	var event func(lp int, id uint64, at Time, local bool)
	spawn := func(lp int) {
		e := s.LP(lp)
		rng := e.RNG("order")
		for n := rng.Intn(3); n > 0 && budgets[lp] > 0; n-- {
			budgets[lp]--
			scheduled[lp]++
			d := Duration(rng.Intn(4)) * Duration(rng.Intn(int(L)))
			if dst := rng.Intn(lps); dst != lp {
				at := e.Now().Add(L + d)
				s.Post(lp, dst, at, func() { event(dst, 0, at, false) })
				continue
			}
			orders[lp]++
			id, at := orders[lp], e.Now().Add(d)
			e.At(at, func() { event(lp, id, at, true) })
		}
	}
	event = func(lp int, id uint64, at Time, local bool) {
		e := s.LP(lp)
		if e.Now() != at || at < last[lp] {
			t.Fatalf("LP %d: event for %v ran at %v after one at %v", lp, at, e.Now(), last[lp])
		}
		if at != last[lp] {
			lastLocal[lp] = 0
		}
		if local {
			if id < lastLocal[lp] {
				t.Fatalf("LP %d: local event %d ran after %d at %v", lp, id, lastLocal[lp], at)
			}
			lastLocal[lp] = id
		}
		last[lp] = at
		ran[lp]++
		logs[lp] = append(logs[lp], fmt.Sprintf("%v local=%v", at, local))
		spawn(lp)
	}
	for lp := 0; lp < lps; lp++ {
		budgets[lp] = 400
		scheduled[lp]++
		orders[lp]++
		id, at := orders[lp], Time(lp)*Time(Microsecond)
		s.LP(lp).At(at, func() { event(lp, id, at, true) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total, totalRan := 0, 0
	for lp := range scheduled {
		total += scheduled[lp]
		totalRan += ran[lp]
	}
	if totalRan != total {
		t.Errorf("seed %d: %d of %d events ran", seed, totalRan, total)
	}
	return fmt.Sprint(logs)
}

// TestShardsEventOrderProperty: across Shards windows, every LP runs its
// events at their own times, in time order, local ties in scheduling
// order, each exactly once, and the transcript is the same at 1 and 2
// workers.
func TestShardsEventOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		if one, two := shardOrderRun(t, seed, 1), shardOrderRun(t, seed, 2); one != two {
			t.Errorf("seed %d: transcripts differ between 1 and 2 workers", seed)
		}
	}
}
