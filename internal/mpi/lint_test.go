package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// findRule returns the findings matching a rule.
func findRule(fs []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestLintCleanProgramHasNoFindings(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 256)
			c.Recv(1, 1)
		case 1:
			c.Recv(0, 0)
			c.Send(0, 1, 256)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if fs := l.Findings(); len(fs) != 0 {
		t.Errorf("clean program produced findings: %v", fs)
	}
}

func TestLintLeakedRequest(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Isend(1, 0, 64) // never waited: leaked
		case 1:
			c.Recv(0, 0)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	leaks := findRule(l.Findings(), RuleLeakedRequest)
	if len(leaks) != 1 || leaks[0].Rank != 0 {
		t.Fatalf("leaked-request findings = %v", leaks)
	}
}

func TestLintUnconsumedMessage(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		if c.Rank() == 0 {
			c.Wait(c.Isend(1, 3, 64)) // eager: completes without a receive
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	got := findRule(l.Findings(), RuleUnconsumed)
	if len(got) != 1 || got[0].Rank != 1 || !strings.Contains(got[0].Message, "tag 3") {
		t.Fatalf("unconsumed-message findings = %v", got)
	}
}

func TestLintWildcardRace(t *testing.T) {
	w := quietWorld(t, 3, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Let both senders' messages queue before receiving.
			c.Compute(1.0)
			c.Recv(AnySource, 0)
			c.Recv(AnySource, 0)
		default:
			c.Send(0, 0, 32)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	races := findRule(l.Findings(), RuleWildcardRace)
	if len(races) != 1 || races[0].Rank != 0 {
		t.Fatalf("wildcard-race findings = %v", races)
	}
}

func TestLintNoWildcardRaceSingleSource(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Compute(1.0)
			c.Recv(AnySource, 0)
		case 1:
			c.Send(0, 0, 32)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if races := findRule(l.Findings(), RuleWildcardRace); len(races) != 0 {
		t.Fatalf("single-source wildcard flagged: %v", races)
	}
}

func TestLintDeadlockDiagnosis(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		// Classic head-to-head receive deadlock.
		c.Recv(1-c.Rank(), 0)
	})
	_, err := w.Wait()
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	defer w.Shutdown()
	dl := findRule(l.Findings(), RuleDeadlock)
	if len(dl) != 2 {
		t.Fatalf("deadlock findings = %v", dl)
	}
	for _, f := range dl {
		if !strings.Contains(f.Message, "recv") {
			t.Errorf("finding does not name the pending op: %v", f)
		}
	}
}

func TestLintPeerRangeFinding(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, 16) // out of range: panics, but records a finding first
		}
	})
	func() {
		defer func() { recover() }()
		w.Wait()
	}()
	defer w.Shutdown()
	got := findRule(l.Findings(), RulePeerRange)
	if len(got) != 1 || got[0].Rank != 0 || got[0].Severity != SeverityError {
		t.Fatalf("peer-range findings = %v", got)
	}
	if !strings.Contains(got[0].Message, "peer 5 out of range") {
		t.Errorf("message = %q", got[0].Message)
	}
}

func TestLintCollectivesProduceNoFindings(t *testing.T) {
	// Internal collective traffic must stay invisible to the linter.
	w := quietWorld(t, 4, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		c.Barrier()
		c.Bcast(0, 1024)
		c.Allreduce(64)
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if fs := l.Findings(); len(fs) != 0 {
		t.Errorf("collectives produced findings: %v", fs)
	}
}

// TestLintLeakOnlyTheUnwaitedIsend mixes calls whose requests the World
// recycles (Barrier, Send, Recv) with one Isend nobody waits for: lint
// mode must report that Isend, and nothing the blocking calls left
// behind.
func TestLintLeakOnlyTheUnwaitedIsend(t *testing.T) {
	w := quietWorld(t, 3, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		for i := 0; i < 3; i++ {
			c.Barrier()
			switch c.Rank() {
			case 0:
				c.Send(1, i, 256)
				c.Recv(2, i)
			case 1:
				c.Recv(0, i)
				c.Send(2, i, 64<<10)
			case 2:
				c.Recv(1, i)
				c.Send(0, i, 256)
			}
		}
		if c.Rank() == 2 {
			c.Isend(0, 9, 128) // never waited: the one leak
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.Recv(2, 9)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	leaks := findRule(l.Findings(), RuleLeakedRequest)
	if len(leaks) != 1 || leaks[0].Rank != 2 ||
		!strings.Contains(leaks[0].Message, "Wait(send to 0 tag 9 size 128)") {
		t.Fatalf("leaked-request findings = %v, want one for rank 2's Isend", leaks)
	}
	if fs := l.Findings(); len(fs) != 1 {
		t.Errorf("findings = %v, want only the leak", fs)
	}
}

// TestLintFreedRequestsAreNotLeaks: requests a rank waited for and
// handed back with Free are not leaks, even when the free list gives
// them to a later call; an unwaited Isend still is.
func TestLintFreedRequestsAreNotLeaks(t *testing.T) {
	w := quietWorld(t, 2, 1, 1)
	l := w.EnableLint()
	w.Launch(func(c *Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 3; i++ {
			rr := c.Irecv(peer, i)
			sr := c.Isend(peer, i, 64<<10)
			c.Waitall(sr, rr)
			c.Free(sr, rr)
		}
		if c.Rank() == 1 {
			c.Isend(0, 9, 128) // never waited: the one leak
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.Recv(1, 9)
		}
	})
	if _, err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	fs := l.Findings()
	if len(fs) != 1 || fs[0].Rule != RuleLeakedRequest || fs[0].Rank != 1 ||
		!strings.Contains(fs[0].Message, "Wait(send to 0 tag 9 size 128)") {
		t.Fatalf("findings = %v, want one leaked-request for rank 1's unwaited Isend", fs)
	}
}
