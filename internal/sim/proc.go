//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	procReady    procState = iota // running or scheduled to run
	procSleeping                  // parked with a pending wakeup event
	procBlocked                   // parked in BlockOn until someone calls Unblock
	procDone                      // body returned
)

// errKilled is panicked inside a process body when the engine shuts
// down, unwinding the body so its coroutine can exit.
type errKilled struct{}

// Proc is an imperative simulation process. Its body runs as a coroutine
// (iter.Pull) that the engine resumes from event context: a process only
// executes between a wake and the next park, and control passes directly
// between the engine and the body, so model state needs no locking.
type Proc struct {
	e     *Engine
	name  string
	state procState
	// reason, when non-nil, describes the blocked operation lazily via
	// BlockReason — the hot path stores one interface word instead of
	// formatting a string nobody reads unless the simulation deadlocks.
	reason BlockReasoner
	// waiter is reason when it is a Waiter: it answers every wakeup
	// while the process is in BlockOn.
	waiter Waiter

	// wakeFn is the wake method bound once at Spawn so that Sleep and
	// Unblock schedule it without allocating a method value per call.
	wakeFn func()

	// next resumes the body until it parks or returns, re-raising a
	// panic from the body; yield (called by the body) switches back and
	// reports false once stop has killed the process.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// BlockReasoner describes a blocked operation on demand. BlockOn stores
// the value and only calls BlockReason if a deadlock report or diagnostic
// needs the text, keeping string formatting off the simulation hot path.
type BlockReasoner interface {
	BlockReason() string
}

// Waiter is a BlockReasoner that decides, in event context, when a
// process blocked on it resumes. BlockOn asks it first, and every later
// wakeup asks it again: the one an Unblock schedules and the end of a
// sleep it answered with. The process resumes only when it answers
// WakeRun. Woken runs at the wakeup event's own position, before any
// switch into the process, so the work the process would have done
// between its wakeups (re-checking its condition, charging a cost it
// then sleeps, starting its next step) happens in the same order without
// a coroutine switch per wakeup. Woken must not call the process's own
// methods (Sleep, BlockOn).
type Waiter interface {
	BlockReasoner
	Woken() (WakeAction, Duration)
}

// WakeAction is a Waiter's answer to a wakeup.
type WakeAction uint8

const (
	// WakeRun resumes the process: BlockOn returns.
	WakeRun WakeAction = iota
	// WakeStay leaves the process blocked without switching into it;
	// the next Unblock asks again.
	WakeStay
	// WakeSleep puts the process to sleep for Woken's duration, as its
	// own Sleep would have; the end of the sleep asks again.
	WakeSleep
)

// Spawn creates a process and schedules its body to start at the current
// virtual time. The name appears in traces and deadlock reports.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	p.wakeFn = p.wake
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = procDone
			e.alive--
			if r := recover(); r != nil {
				if _, killed := r.(errKilled); !killed {
					panic(r) // a model bug: next re-raises it in engine context
				}
			}
		}()
		body(p)
	})
	if e.mResumes == nil {
		e.mResumes = e.reg.Counter("sim", "proc_resumes_total")
	}
	e.procs = append(e.procs, p)
	e.alive++
	e.mProcsTotal.Inc()
	e.mProcsPeak.SetMax(int64(e.alive))
	e.Schedule(0, p.wakeFn)
	return p
}

// wake transfers control into the process until it parks or finishes,
// unless the Waiter it blocked on keeps it parked. It runs in event
// context.
func (p *Proc) wake() {
	if p.state == procDone || p.waiter != nil && p.stays() {
		return
	}
	p.state = procReady
	p.e.mResumes.Inc()
	prev := p.e.current
	p.e.current = p
	defer func() { p.e.current = prev }()
	p.next()
}

// stays asks the Waiter of a process in BlockOn what a wakeup, or
// BlockOn itself, does, and reports whether the process stays parked:
// blocked (WakeStay) or asleep (WakeSleep, which schedules its wakeup as
// Sleep does). While Woken runs the process is never in the blocked
// state (it is running, woken, or at the end of a sleep), so an Unblock
// it causes schedules no wakeup.
//
//detlint:hotpath
func (p *Proc) stays() bool {
	switch act, d := p.waiter.Woken(); act {
	case WakeStay:
		p.state = procBlocked
		return true
	case WakeSleep:
		p.state = procSleeping
		p.e.Schedule(d, p.wakeFn)
		return true
	}
	return false
}

// park gives control back to the engine and waits to be resumed.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errKilled{})
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.checkCurrent("Sleep")
	p.state = procSleeping
	p.e.Schedule(d, p.wakeFn)
	p.park()
}

// BlockOn parks the process until another process or event calls
// Unblock. The reason is produced on demand from r only if a deadlock
// report or BlockedOn query needs it, so hot paths (MPI's waits and
// collectives) pass their wait state instead of formatting a string per
// wait. When r is a Waiter, BlockOn asks it first and returns only once
// it answers WakeRun, which it may do at once, with no park. Other
// callers that wait for a condition should loop:
// for !cond { p.BlockOn(r) }.
func (p *Proc) BlockOn(r BlockReasoner) {
	p.checkCurrent("BlockOn")
	p.reason = r
	if p.waiter, _ = r.(Waiter); p.waiter == nil {
		p.state = procBlocked
		p.park()
	} else if p.stays() {
		p.park()
	}
	p.reason, p.waiter = nil, nil
}

// Unblock schedules a blocked process's wakeup at the current virtual
// time; a Waiter it blocked on answers that wakeup first. It is a no-op
// unless the process is currently blocked, so it is always safe to
// call; waiters must re-check their condition after waking.
func (p *Proc) Unblock() {
	if p.state != procBlocked {
		return
	}
	p.state = procReady
	p.e.Schedule(0, p.wakeFn)
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// BlockedOn returns the reason the process is currently blocked on (as
// described by the BlockReasoner passed to BlockOn), or "" when it is
// not blocked. Diagnostic tooling uses it to name a stuck process's
// pending operation.
func (p *Proc) BlockedOn() string {
	if p.state != procBlocked || p.reason == nil {
		return ""
	}
	return p.reason.BlockReason()
}

func (p *Proc) describeBlocked() string {
	if reason := p.BlockedOn(); reason != "" {
		return p.name + " (" + reason + ")"
	}
	return p.name
}

func (p *Proc) checkCurrent(op string) {
	if p.e.current != p {
		panic(fmt.Sprintf("sim: %s.%s called from outside the process", p.name, op))
	}
}

// Shutdown unwinds every process that has not finished, one at a time in
// spawn order: a parked process's deferred calls run, and a process that
// was never woken is dropped without running its body.
// Call it when abandoning a simulation early (e.g. after RunUntil a
// cutoff) so process goroutines do not outlive the engine — sweeps that
// run many engines concurrently rely on this to keep the goroutine count
// bounded. Every process has exited when it returns. It is safe to call
// after a completed run (a no-op then) but must not be called while Run
// is executing, and the engine must not be Run again.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
}
