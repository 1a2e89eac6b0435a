package sim

import "testing"

// warm is how many events the allocation tests schedule before measuring,
// so the queue's backing array has outgrown anything the measured loop
// needs.
const warm = 256

// TestScheduleZeroAllocSteadyState is the kernel's allocation guarantee:
// once the queue's array is warm, a schedule→pop cycle performs no heap
// allocations at all.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < warm; i++ {
		e.Schedule(Millisecond, fn)
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(Millisecond, fn)
		if _, err := e.Run(Forever); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule→pop allocates %v objects/op, want 0", allocs)
	}
}

// TestProcSwitchZeroAllocSteadyState: once a process is running, handing
// control to it and back allocates nothing, whether it wakes from Sleep,
// from Block via Unblock, or after a Waiter answered its wakeup with a
// sleep and the sleep's end with a run.
func TestProcSwitchZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	blocked := e.Spawn("blocked", func(p *Proc) {
		for {
			p.BlockOn(why("await unblock"))
		}
	})
	w := &answer{act: WakeSleep, d: Microsecond / 2}
	answered := e.Spawn("answered", func(p *Proc) {
		for {
			p.BlockOn(w)
		}
	})
	step := func() {
		blocked.Unblock()
		answered.Unblock()
		if _, err := e.Run(e.Now().Add(Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state process switch allocates %v objects/op, want 0", allocs)
	}
}

// answer is a Waiter that answers BlockOn with a stay and every
// Unblock's wakeup with act, WakeStay or WakeSleep; it answers the end
// of a sleep with a run.
type answer struct {
	act WakeAction
	d   Duration
	// parked is set once BlockOn is answered, slept while the process
	// sleeps through d.
	parked, slept bool
}

func (a *answer) BlockReason() string { return "answer" }

func (a *answer) Woken() (WakeAction, Duration) {
	switch {
	case a.slept:
		a.parked, a.slept = false, false
		return WakeRun, 0
	case !a.parked:
		a.parked = true
		return WakeStay, 0
	}
	a.slept = a.act == WakeSleep
	return a.act, a.d
}

// BenchmarkProcSwitch is the process layer's unit cost: one Sleep→wake
// round trip, one Block/Unblock ping-pong between two processes (two
// wakes per op), and an Unblock whose wakeup a Waiter answers in event
// context: with WakeStay (no switch at all) or with WakeSleep (one
// switch in, when the sleep ends, where a process that re-checks and
// sleeps itself is switched in twice).
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		e := NewEngine(1)
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(Forever); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("block", func(b *testing.B) {
		e := NewEngine(1)
		done := false
		var ping *Proc
		pong := e.Spawn("pong", func(p *Proc) {
			for {
				p.BlockOn(why("await ping"))
				if done {
					return
				}
				ping.Unblock()
			}
		})
		ping = e.Spawn("ping", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				pong.Unblock()
				p.BlockOn(why("await pong"))
			}
			done = true
			pong.Unblock()
		})
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(Forever); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("answered-stay", func(b *testing.B) { benchmarkAnswered(b, &answer{act: WakeStay}) })
	b.Run("answered-sleep", func(b *testing.B) { benchmarkAnswered(b, &answer{act: WakeSleep, d: Microsecond}) })
}

func benchmarkAnswered(b *testing.B, a *answer) {
	e := NewEngine(1)
	defer e.Shutdown()
	// idle keeps an event queued past every Run's horizon, so Run stops
	// at its horizon instead of reporting the blocked process.
	e.Spawn("idle", func(p *Proc) { p.Sleep(1e6 * Second) })
	blocked := e.Spawn("blocked", func(p *Proc) {
		for {
			p.BlockOn(a)
		}
	})
	step := func() {
		blocked.Unblock()
		if _, err := e.Run(e.Now().Add(a.d)); err != nil {
			b.Fatal(err)
		}
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < warm; i++ {
		e.Schedule(Millisecond, fn)
	}
	if _, err := e.Run(Forever); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Millisecond, fn)
		if i%64 == 63 {
			if _, err := e.Run(Forever); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := e.Run(Forever); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapChurn stresses the four-ary heap with a deep queue: many
// pending timers with interleaved pushes and pops, the shape of a netsim
// retransmission storm.
func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.Schedule(Duration(i)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(depth+i)*Microsecond, fn)
		e.now = e.heapPop().at
	}
}

// pingPong is a sharded model whose every window has exactly one due LP
// and one cross-LP post: a message hops between LP 0 and the last LP,
// one lookahead per hop, while every other LP stays idle. Both
// callbacks are built once, so a run allocates only what the
// coordinator does.
type pingPong struct {
	s          *Shards
	left       int
	ping, pong func()
}

// pingPongLookahead is the pingPong model's lookahead: one hop's latency.
const pingPongLookahead = 10 * Microsecond

func newPingPong(tb testing.TB, nLPs int) *pingPong {
	tb.Helper()
	s, err := NewShards(1, nLPs, pingPongLookahead, 1)
	if err != nil {
		tb.Fatal(err)
	}
	p := &pingPong{s: s}
	far := nLPs - 1
	p.ping = func() { p.hop(0, far, p.pong) }
	p.pong = func() { p.hop(far, 0, p.ping) }
	return p
}

// hop posts next from LP src to LP dst one lookahead ahead, while hops
// remain.
func (p *pingPong) hop(src, dst int, next func()) {
	if p.left--; p.left > 0 {
		p.s.Post(src, dst, p.s.LP(src).Now().Add(pingPongLookahead), next)
	}
}

// run makes hops hops (hops windows), starting from LP 0's clock.
func (p *pingPong) run(tb testing.TB, hops int) {
	p.left = hops
	lp := p.s.LP(0)
	lp.At(lp.Now(), p.ping)
	if _, err := p.s.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestShardsWindowAllocSteadyState: once its outboxes, merge buffer and
// event queues are warm, a sharded run allocates a constant number of
// objects per Run, not one per window: the barrier merge sorts without
// boxing the slice or capturing a comparator.
func TestShardsWindowAllocSteadyState(t *testing.T) {
	const hops = 1000
	p := newPingPong(t, 65)
	p.run(t, hops)
	before := p.s.Windows()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { p.run(t, hops) })
	// AllocsPerRun makes one extra, unmeasured warm-up call.
	if got := p.s.Windows() - before; got != (runs+1)*hops {
		t.Fatalf("%d windows over %d runs, want %d per run", got, runs+1, hops)
	}
	if allocs > 1 {
		t.Errorf("a warm %d-window sharded run allocates %v objects, want at most 1 (Run's error slice)",
			hops, allocs)
	}
}

// BenchmarkShardsWindow is the sharded coordinator's unit cost: one
// window of the fabric's shape (65 LPs: 64 leaves and the core) in
// which one LP has an event due and posts one cross-LP message.
func BenchmarkShardsWindow(b *testing.B) {
	p := newPingPong(b, 65)
	p.run(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	p.run(b, b.N)
}

// TestNewRNGValueCopyZeroAlloc: re-seeding a stream held by value, as
// pevpm's recycled machines do with *NewRNG(seed), allocates nothing.
func TestNewRNGValueCopyZeroAlloc(t *testing.T) {
	var r RNG
	seed := uint64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		seed++
		r = *NewRNG(seed)
	}); allocs != 0 {
		t.Errorf("copying *NewRNG(seed) into a value allocates %v objects/op, want 0", allocs)
	}
	_ = r
}
