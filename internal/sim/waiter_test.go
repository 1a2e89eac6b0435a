package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// scripted is a Waiter that answers BlockOn and each wakeup from a
// script, one answer per call, and logs each call's virtual time and
// whether a process was current (BlockOn asks from the process, wakeups
// from event context).
type scripted struct {
	e       *Engine
	reason  string
	answers []WakeAction
	sleeps  []Duration // the duration of each WakeSleep answer, in order
	calls   []string
}

func (s *scripted) BlockReason() string { return s.reason }

func (s *scripted) Woken() (WakeAction, Duration) {
	act := s.answers[len(s.calls)]
	s.calls = append(s.calls, fmt.Sprintf("%v current=%v", s.e.Now(), s.e.current != nil))
	var d Duration
	if act == WakeSleep {
		d, s.sleeps = s.sleeps[0], s.sleeps[1:]
	}
	return act, d
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

// atBlockOn is the log entry of the answer BlockOn asks for at time 0,
// from the blocking process.
const atBlockOn = "0.000000000s current=true"

// TestWaiterRun: after a stay at BlockOn, a WakeRun answer to an
// Unblock switches the process in at the wakeup, and Woken runs in event
// context before that.
func TestWaiterRun(t *testing.T) {
	w := &scripted{reason: "run", answers: []WakeAction{WakeStay, WakeRun}}
	e, blocked, returned := wakerRun(t, w, 1)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(1) || !blocked.Done() {
		t.Errorf("BlockOn returned at %v (done %v), want 1s", *returned, blocked.Done())
	}
	if got, want := strings.Join(w.calls, "; "), atBlockOn+"; 1.000000000s current=false"; got != want {
		t.Errorf("Woken calls: %s, want %s", got, want)
	}
}

// TestWaiterStay: WakeStay answers leave the process blocked without
// running it, so the deadlock report names the waiter's reason, and
// every Unblock asks again.
func TestWaiterStay(t *testing.T) {
	w := &scripted{reason: "Wait(recv src 5 tag 9)", answers: []WakeAction{WakeStay, WakeStay, WakeStay}}
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
	want := atBlockOn + "; 1.000000000s current=false; 2.000000000s current=false"
	if got := strings.Join(w.calls, "; "); got != want {
		t.Errorf("Woken calls: %s, want BlockOn's and one per Unblock", got)
	}
	e.Shutdown()
}

// TestWaiterSleep: a WakeSleep answer to an Unblock makes the process
// sleep from the wakeup for the answered duration, as its own Sleep
// would: an Unblock during the sleep is a no-op, and the end of the
// sleep asks again, here for a WakeRun.
func TestWaiterSleep(t *testing.T) {
	w := &scripted{reason: "sleep", answers: []WakeAction{WakeStay, WakeSleep, WakeRun}, sleeps: []Duration{3 * Second}}
	e, _, returned := wakerRun(t, w, 1, 2)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(4) {
		t.Errorf("BlockOn returned at %v, want 4s (woken at 1s, then 3s asleep)", *returned)
	}
	want := atBlockOn + "; 1.000000000s current=false; 4.000000000s current=false"
	if got := strings.Join(w.calls, "; "); got != want {
		t.Errorf("Woken calls: %s, want %s: the Unblock at 2s found the process asleep", got, want)
	}
}

// TestWaiterUnblockTwice: two Unblocks before the wakeup fires schedule
// one wakeup, which asks the Waiter once, as they schedule one switch
// for a process blocked on a plain reason.
func TestWaiterUnblockTwice(t *testing.T) {
	e := NewEngine(1)
	w := &scripted{e: e, reason: "twice", answers: []WakeAction{WakeStay, WakeRun}}
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
	if len(w.calls) != 2 || !blocked.Done() {
		t.Errorf("Woken calls %v, done %v; want BlockOn's and one wakeup's, and a finished process",
			w.calls, blocked.Done())
	}
}

// TestWaiterShutdown: Shutdown unwinds a process blocked on a Waiter,
// after a stay answer to a wakeup too, and reclaims its goroutine.
func TestWaiterShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	w := &scripted{reason: "shutdown", answers: []WakeAction{WakeStay, WakeStay}}
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
	if !unwound || len(w.calls) != 2 {
		t.Errorf("unwound %v after %d Woken calls; want unwound after 2", unwound, len(w.calls))
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before NewEngine, %d after Shutdown", before, n)
	}
}

// TestWaiterRunAtBlockOn: a WakeRun answer at BlockOn returns at once,
// from the process, with no park: nothing is scheduled and the process
// is resumed only by its spawn.
func TestWaiterRunAtBlockOn(t *testing.T) {
	e := NewEngine(1)
	w := &scripted{e: e, reason: "run at once", answers: []WakeAction{WakeRun}}
	returned := Time(-1)
	e.Spawn("blocked", func(p *Proc) {
		p.BlockOn(w)
		returned = p.Now()
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if returned != 0 || strings.Join(w.calls, "; ") != atBlockOn {
		t.Errorf("BlockOn returned at %v after Woken calls %v; want at 0 after BlockOn's", returned, w.calls)
	}
	if sched, resumes := e.mScheduled.Value(), e.mResumes.Value(); sched != 1 || resumes != 1 {
		t.Errorf("%d events scheduled and %d resumes, want 1 and 1 (the spawn)", sched, resumes)
	}
}

// TestWaiterSleepAtBlockOn: a WakeSleep answer at BlockOn puts the
// process to sleep from BlockOn, and the end of the sleep asks again.
func TestWaiterSleepAtBlockOn(t *testing.T) {
	w := &scripted{reason: "sleep at once", answers: []WakeAction{WakeSleep, WakeRun}, sleeps: []Duration{2 * Second}}
	e, _, returned := wakerRun(t, w)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(2) {
		t.Errorf("BlockOn returned at %v, want 2s", *returned)
	}
	if got, want := strings.Join(w.calls, "; "), atBlockOn+"; 2.000000000s current=false"; got != want {
		t.Errorf("Woken calls: %s, want %s", got, want)
	}
}

// TestWaiterChainedSleeps: a Waiter that answers the end of one sleep
// with another keeps the process parked through both, and it is
// resumed exactly once, when the Waiter answers WakeRun.
func TestWaiterChainedSleeps(t *testing.T) {
	w := &scripted{reason: "two sleeps", answers: []WakeAction{WakeSleep, WakeSleep, WakeRun},
		sleeps: []Duration{Second, 2 * Second}}
	e, _, returned := wakerRun(t, w)
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if *returned != TimeFromSeconds(3) {
		t.Errorf("BlockOn returned at %v, want 3s", *returned)
	}
	// Both spawns, and one resume out of BlockOn.
	if got := e.mResumes.Value(); got != 3 {
		t.Errorf("%d resumes, want 3: the two spawns and one out of BlockOn", got)
	}
	want := atBlockOn + "; 1.000000000s current=false; 3.000000000s current=false"
	if got := strings.Join(w.calls, "; "); got != want {
		t.Errorf("Woken calls: %s, want %s", got, want)
	}
}

// sleepAfterWake is the Waiter form of a process that waits for a
// condition and then sleeps through a cost: it answers stay until the
// condition holds, then a sleep, and at the end of the sleep a run. The
// equivalence test runs it beside the process-side form and compares
// the two engines.
type sleepAfterWake struct {
	ready, slept bool
	cost         Duration
}

func (s *sleepAfterWake) BlockReason() string { return "ready" }

func (s *sleepAfterWake) Woken() (WakeAction, Duration) {
	switch {
	case s.slept:
		s.slept = false
		return WakeRun, 0
	case !s.ready:
		return WakeStay, 0
	}
	s.slept = true
	return WakeSleep, s.cost
}

// TestWaiterMatchesProcessSideWait: a Waiter that answers stay until its
// condition holds, then a sleep, then a run, yields the same virtual
// times and the same number of scheduled events as a process that
// re-checks the condition itself and then sleeps: the hook moves no
// event, and it resumes the process once per wait where the process
// side is resumed once per wakeup and once more after its sleep.
func TestWaiterMatchesProcessSideWait(t *testing.T) {
	run := func(hook bool) (string, uint64) {
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
		return fmt.Sprintf("%v scheduled=%d", log, e.mScheduled.Value()), e.mResumes.Value()
	}
	hooked, hookedResumes := run(true)
	plain, plainResumes := run(false)
	if hooked != plain {
		t.Errorf("with a Waiter: %s\nre-checked by the process: %s", hooked, plain)
	}
	// Both sides: two spawns and the waker's nine sleeps. The blocked
	// process is resumed once per wait with the Waiter. Without, it is
	// resumed by seven wakeups (the Unblocks at 4s and 7s find it
	// asleep) and at the end of each of its three sleeps.
	if want := uint64(2 + 9 + 3); hookedResumes != want {
		t.Errorf("%d resumes with a Waiter, want %d", hookedResumes, want)
	}
	if want := uint64(2 + 9 + 7 + 3); plainResumes != want {
		t.Errorf("%d resumes re-checked by the process, want %d", plainResumes, want)
	}
}
