package sim

import "testing"

// TestScheduleZeroAllocSteadyState is the tentpole's allocation guarantee:
// once the event pool and heap are warm, a schedule→pop cycle performs no
// heap allocations at all.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the pool and the heap's backing array past anything the
	// measured loop will need.
	for i := 0; i < 4*eventChunk; i++ {
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

// TestCancelZeroAllocSteadyState: cancelling recycles the struct without
// allocating either.
func TestCancelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4*eventChunk; i++ {
		e.Schedule(Millisecond, fn)
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.Schedule(Millisecond, fn)
		if !h.Cancel() {
			t.Fatal("Cancel failed")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule→cancel allocates %v objects/op, want 0", allocs)
	}
}

// TestProcSwitchZeroAllocSteadyState: once a process is running, handing
// control to it and back allocates nothing, whether it wakes from Sleep
// or from Block via Unblock.
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
			p.Block("await unblock")
		}
	})
	step := func() {
		blocked.Unblock()
		if _, err := e.Run(e.Now().Add(Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*eventChunk; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state process switch allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkProcSwitch is the process layer's unit cost: one Sleep→wake
// round trip, and one Block/Unblock ping-pong between two processes
// (two wakes per op).
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
				p.Block("await ping")
				if done {
					return
				}
				ping.Unblock()
			}
		})
		ping = e.Spawn("ping", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				pong.Unblock()
				p.Block("await pong")
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
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4*eventChunk; i++ {
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

func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := e.Schedule(Millisecond, fn)
		h.Cancel()
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
		if len(e.events) > 0 {
			ev := e.heapPop()
			e.now = ev.at
			e.recycle(ev)
		}
	}
}
