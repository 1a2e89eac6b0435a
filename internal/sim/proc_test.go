package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// why is a fixed reason for tests to block on.
type why string

func (w why) BlockReason() string { return string(w) }

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
			times = append(times, p.Now())
		}
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		want := TimeFromSeconds(float64(i + 1))
		if tt != want {
			t.Errorf("wake %d at %v, want %v", i, tt, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				p.Sleep(Second)
			}
		})
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcBlockUnblockHandshake(t *testing.T) {
	e := NewEngine(1)
	ready := false
	var consumer *Proc
	consumer = e.Spawn("consumer", func(p *Proc) {
		for !ready {
			p.BlockOn(why("waiting for producer"))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * Second)
		ready = true
		consumer.Unblock()
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if !consumer.Done() {
		t.Error("consumer did not finish")
	}
}

func TestUnblockIsNoOpWhenNotBlocked(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("p", func(p *Proc) { p.Sleep(Second) })
	// Unblock while the process is sleeping must not wake it early.
	e.Schedule(Millisecond, func() { p.Unblock() })
	var woke Time
	e.Spawn("obs", func(q *Proc) {
		for !p.Done() {
			q.Sleep(Millisecond)
		}
		woke = q.Now()
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke < TimeFromSeconds(1) {
		t.Errorf("process finished at %v, should not wake before 1s", woke)
	}
}

// TestYieldRunsPeersFirst: Sleep(0) yields, letting every other event
// and process scheduled at the current time run before the sleeper.
func TestYieldRunsPeersFirst(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("first", func(p *Proc) {
		order = append(order, "first-before")
		p.Sleep(0)
		order = append(order, "first-after")
	})
	e.Spawn("second", func(p *Proc) {
		order = append(order, "second")
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []string{"first-before", "second", "first-after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestShutdownUnwindsParkedProcs: killing a parked process unwinds its
// body, so its deferred calls run.
func TestShutdownUnwindsParkedProcs(t *testing.T) {
	e := NewEngine(1)
	unwound := map[string]bool{}
	e.Spawn("blocked", func(p *Proc) {
		defer func() { unwound["blocked"] = true }()
		p.BlockOn(why("forever"))
	})
	e.Spawn("sleeping", func(p *Proc) {
		defer func() { unwound["sleeping"] = true }()
		p.Sleep(100 * Second)
	})
	if _, err := e.Run(TimeFromSeconds(1)); err != nil {
		t.Fatal(err)
	}
	if len(unwound) != 0 {
		t.Fatalf("deferred calls ran before Shutdown: %v", unwound)
	}
	e.Shutdown()
	if !unwound["blocked"] || !unwound["sleeping"] {
		t.Errorf("deferred calls after Shutdown: %v, want both processes", unwound)
	}
	if len(e.procs) != 0 {
		t.Errorf("procs remaining after Shutdown: %d", len(e.procs))
	}
}

// TestShutdownReclaimsBeforeReturning: every process goroutine has
// exited by the time Shutdown returns, whether the process was never
// started, blocked or sleeping. The test is serial and does not poll.
func TestShutdownReclaimsBeforeReturning(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Spawn("blocked", func(p *Proc) { p.BlockOn(why("forever")) })
	e.Spawn("sleeping", func(p *Proc) { p.Sleep(100 * Second) })
	if _, err := e.Run(TimeFromSeconds(1)); err != nil {
		t.Fatal(err)
	}
	e.Spawn("never-started", func(p *Proc) { t.Error("never-started process ran") })
	e.Shutdown()
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before NewEngine, %d after Shutdown\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestShutdownKillsInSpawnOrder: Shutdown unwinds processes in the order
// they were spawned, so their deferred calls run in that order.
func TestShutdownKillsInSpawnOrder(t *testing.T) {
	e := NewEngine(1)
	var unwound []int
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { unwound = append(unwound, i) }()
			p.BlockOn(why("forever"))
		})
	}
	if _, err := e.Run(Forever); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want the deadlock of 8 blocked processes", err)
	}
	e.Shutdown()
	if fmt.Sprint(unwound) != "[0 1 2 3 4 5 6 7]" {
		t.Errorf("deferred calls ran in order %v, want spawn order", unwound)
	}
}

// TestProcPanicPropagates: a model panic reaches Run's caller with its
// original value, the engine leaves process context, and a following
// Shutdown still reclaims the processes left parked.
func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	unwound := 0
	for _, name := range []string{"a", "b", "c"} {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound++ }()
			p.BlockOn(why("forever"))
		})
	}
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(Second)
		panic("model bug")
	})
	func() {
		defer func() {
			if r := recover(); r != "model bug" {
				t.Errorf("recover() = %v, want the model's panic value", r)
			}
		}()
		e.Run(Forever)
		t.Error("Run returned normally, want the model panic")
	}()
	if e.current != nil {
		t.Errorf("engine still in process %s after the panic", e.current.name)
	}
	e.Shutdown()
	if unwound != 3 {
		t.Errorf("Shutdown unwound %d parked processes, want 3", unwound)
	}
	if len(e.procs) != 0 {
		t.Errorf("procs remaining after Shutdown: %d", len(e.procs))
	}
}

// TestProcGoexitReachesRunCaller: runtime.Goexit in a process body ends
// the goroutine that called Run, the way a panic reaches it.
func TestProcGoexitReachesRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run(Forever)
		ok = true
	}()
	if <-returned {
		t.Error("Run returned normally after runtime.Goexit in a process body")
	}
}

func TestDeadlockReportNamesReason(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("rank3", func(p *Proc) { p.BlockOn(why("Recv(src=5, tag=9)")) })
	_, err := e.Run(Forever)
	if err == nil {
		t.Fatal("expected deadlock")
	}
	msg := err.Error()
	for _, frag := range []string{"rank3", "Recv(src=5, tag=9)"} {
		if !contains(msg, frag) {
			t.Errorf("deadlock message %q missing %q", msg, frag)
		}
	}
	e.Shutdown()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
