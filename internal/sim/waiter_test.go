package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// scripted is a Waiter that answers its wakeups from a script, one
// answer per call, and logs each call's virtual time and whether it ran
// in event context.
type scripted struct {
	e       *Engine
	reason  string
	answers []WakeAction
	sleep   Duration
	calls   []string
}

func (s *scripted) BlockReason() string { return s.reason }

func (s *scripted) Woken() (WakeAction, Duration) {
	act := s.answers[len(s.calls)]
	s.calls = append(s.calls, fmt.Sprintf("%v current=%v", s.e.Now(), s.e.current != nil))
	return act, s.sleep
}

// wakerRun spawns a process that blocks once on w and records when
// BlockOn returns, and a process that unblocks it at each of the given
// times (seconds). It returns the engine, the blocked process and a
// pointer to the return time (-1 while BlockOn has not returned).
func wakerRun(t *testing.T, w *scripted, unblocks ...float64) (*Engine, *Proc, *Time) {
	t.Helper()
	e := NewEngine(1)
	w.e = e
	returned := Time(-1)
	blocked := e.Spawn("blocked", func(p *Proc) {
		p.BlockOn(w)
		returned = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		for _, at := range unblocks {
			p.Sleep(TimeFromSeconds(at).Sub(p.Now()))
			blocked.Unblock()
		}
	})
	return e, blocked, &returned
}

// TestWaiterRun: a WakeRun answer switches the process in at the
// wakeup, and Woken runs in event context before that.
func TestWaiterRun(t *testing.T) {
	w := &scripted{reason: "run", answers: []WakeAction{WakeRun}}
	e, blocked, returned := wakerRun(t, w, 1)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(1) || !blocked.Done() {
		t.Errorf("BlockOn returned at %v (done %v), want 1s", *returned, blocked.Done())
	}
	if got := strings.Join(w.calls, "; "); got != "1.000000000s current=false" {
		t.Errorf("Woken calls: %s, want one at 1s in event context", got)
	}
}

// TestWaiterStay: a WakeStay answer leaves the process blocked without
// running it, so the deadlock report names the waiter's reason, until
// the next Unblock asks again.
func TestWaiterStay(t *testing.T) {
	w := &scripted{reason: "Wait(recv src 5 tag 9)", answers: []WakeAction{WakeStay, WakeStay}}
	e, blocked, returned := wakerRun(t, w, 1, 2)
	if _, err := e.Run(TimeFromSeconds(1.5)); err != nil {
		t.Fatal(err)
	}
	if *returned != -1 || blocked.BlockedOn() != w.reason {
		t.Fatalf("after a stay: BlockOn returned at %v, BlockedOn %q; want still blocked on %q",
			*returned, blocked.BlockedOn(), w.reason)
	}
	_, err := e.Run(Forever)
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "blocked (Wait(recv src 5 tag 9))") {
		t.Errorf("Run = %v, want a deadlock naming the waiter's reason", err)
	}
	if got := strings.Join(w.calls, "; "); got != "1.000000000s current=false; 2.000000000s current=false" {
		t.Errorf("Woken calls: %s, want one per Unblock", got)
	}
	e.Shutdown()
}

// TestWaiterSleep: a WakeSleep answer makes the process sleep from the
// wakeup for the answered duration, as its own Sleep would: BlockOn
// returns when the sleep ends, and an Unblock during the sleep is a
// no-op.
func TestWaiterSleep(t *testing.T) {
	w := &scripted{reason: "sleep", answers: []WakeAction{WakeSleep}, sleep: 3 * Second}
	e, _, returned := wakerRun(t, w, 1, 2)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(4) {
		t.Errorf("BlockOn returned at %v, want 4s (woken at 1s, then 3s asleep)", *returned)
	}
	if len(w.calls) != 1 {
		t.Errorf("Woken calls: %v, want only the first: the second Unblock found the process asleep", w.calls)
	}
}

// TestWaiterUnblockTwice: two Unblocks before the wakeup fires schedule
// one wakeup and one Woken call, as they schedule one switch for a
// process blocked on a plain reason.
func TestWaiterUnblockTwice(t *testing.T) {
	e := NewEngine(1)
	w := &scripted{e: e, reason: "twice", answers: []WakeAction{WakeRun}}
	blocked := e.Spawn("blocked", func(p *Proc) { p.BlockOn(w) })
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Second)
		blocked.Unblock()
		blocked.Unblock()
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	// Two spawn wakeups, the waker's sleep and one wakeup of blocked.
	if got := e.mScheduled.Value(); got != 4 {
		t.Errorf("%d events scheduled, want 4", got)
	}
	if len(w.calls) != 1 || !blocked.Done() {
		t.Errorf("Woken calls %v, done %v; want one call and a finished process", w.calls, blocked.Done())
	}
}

// TestWaiterShutdown: Shutdown unwinds a process blocked on a Waiter,
// after a stay answer too, and reclaims its goroutine.
func TestWaiterShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	w := &scripted{reason: "shutdown", answers: []WakeAction{WakeStay}}
	e := NewEngine(1)
	w.e = e
	unwound := false
	blocked := e.Spawn("blocked", func(p *Proc) {
		defer func() { unwound = true }()
		p.BlockOn(w)
	})
	e.Spawn("waker", func(p *Proc) { blocked.Unblock() })
	if _, err := e.Run(Forever); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	e.Shutdown()
	if !unwound || len(w.calls) != 1 {
		t.Errorf("unwound %v after %d Woken calls; want unwound after 1", unwound, len(w.calls))
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before NewEngine, %d after Shutdown", before, n)
	}
}

// sleepAfterWake is the process-side equivalent of a Waiter answering
// WakeSleep: a process that loops on a plain reason until its condition
// holds, then draws a cost and sleeps it. The equivalence test runs it
// beside the Waiter form and compares the two engines.
type sleepAfterWake struct {
	ready bool
	cost  Duration
}

func (s *sleepAfterWake) BlockReason() string { return "ready" }

func (s *sleepAfterWake) Woken() (WakeAction, Duration) {
	if !s.ready {
		return WakeStay, 0
	}
	return WakeSleep, s.cost
}

// TestWaiterMatchesProcessSideWait: a Waiter that answers stay until its
// condition holds and then a sleep yields the same virtual times and
// the same number of scheduled events as a process that re-checks the
// condition itself and then sleeps: the hook moves no event.
func TestWaiterMatchesProcessSideWait(t *testing.T) {
	run := func(hook bool) string {
		e := NewEngine(1)
		var log []string
		cond := &sleepAfterWake{cost: 2 * Second}
		blocked := e.Spawn("blocked", func(p *Proc) {
			for i := 0; i < 3; i++ {
				cond.ready = false
				if hook {
					p.BlockOn(cond)
				} else {
					for !cond.ready {
						p.BlockOn(why("ready"))
					}
					p.Sleep(cond.cost)
				}
				log = append(log, fmt.Sprintf("returned %v", p.Now()))
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for i := 0; i < 9; i++ {
				p.Sleep(Second)
				cond.ready = i%3 == 2 // two spurious wakeups, then a real one
				blocked.Unblock()
			}
		})
		if _, err := e.Run(Forever); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v scheduled=%d", log, e.mScheduled.Value())
	}
	if hooked, plain := run(true), run(false); hooked != plain {
		t.Errorf("with a Waiter: %s\nre-checked by the process: %s", hooked, plain)
	}
}
