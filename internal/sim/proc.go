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
	procBlocked                   // parked until someone calls Unblock
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
	e      *Engine
	name   string
	state  procState
	reason string // what the process is blocked on, for deadlock reports
	// reasonOn, when non-nil, describes the blocked operation lazily via
	// BlockReason — the hot path stores one interface word instead of
	// formatting a string nobody reads unless the simulation deadlocks.
	reasonOn BlockReasoner

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
	e.procs = append(e.procs, p)
	e.alive++
	e.mProcsTotal.Inc()
	e.mProcsPeak.SetMax(int64(e.alive))
	e.Schedule(0, p.wakeFn)
	e.Tracef("spawn %s", name)
	return p
}

// wake transfers control into the process until it parks or finishes.
// It runs in event context.
func (p *Proc) wake() {
	if p.state == procDone {
		return
	}
	p.state = procReady
	prev := p.e.current
	p.e.current = p
	defer func() { p.e.current = prev }()
	p.next()
}

// park gives control back to the engine and waits to be resumed.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errKilled{})
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.checkCurrent("Sleep")
	p.state = procSleeping
	p.e.Schedule(d, p.wakeFn)
	p.park()
}

// Yield lets every other event and process scheduled at the current time
// run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Block parks the process until another process or event calls Unblock.
// The reason string is reported if the simulation deadlocks. Callers that
// wait for a condition should loop: for !cond { p.Block("...") }.
func (p *Proc) Block(reason string) {
	p.checkCurrent("Block")
	p.state = procBlocked
	p.reason = reason
	p.park()
	p.reason = ""
}

// BlockOn parks the process like Block, but the reason is produced
// on demand from r only if a deadlock report or BlockedOn query needs it.
// Hot paths that would otherwise format a fresh string per wait (MPI's
// Wait/Waitall) pass their request object instead.
func (p *Proc) BlockOn(r BlockReasoner) {
	p.checkCurrent("Block")
	p.state = procBlocked
	p.reasonOn = r
	p.park()
	p.reasonOn = nil
}

// Unblock makes a blocked process runnable at the current virtual time.
// It is a no-op unless the process is currently blocked, so it is always
// safe to call; waiters must re-check their condition after waking.
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
// passed to Block), or "" when it is not blocked. Diagnostic tooling
// uses it to name a stuck process's pending operation.
func (p *Proc) BlockedOn() string {
	if p.state != procBlocked {
		return ""
	}
	if p.reasonOn != nil {
		return p.reasonOn.BlockReason()
	}
	return p.reason
}

func (p *Proc) describeBlocked() string {
	reason := p.reason
	if p.reasonOn != nil {
		reason = p.reasonOn.BlockReason()
	}
	if reason == "" {
		return p.name
	}
	return p.name + " (" + reason + ")"
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
