package sim

import (
	"errors"
	"testing"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*Microsecond, func() { got = append(got, 3) })
	e.Schedule(10*Microsecond, func() { got = append(got, 1) })
	e.Schedule(20*Microsecond, func() { got = append(got, 2) })
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Millisecond, func() { got = append(got, i) })
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.Schedule(Millisecond, func() {
		at1 = e.Now()
		e.Schedule(Second, func() { at2 = e.Now() })
	})
	end, err := e.Run(Forever)
	if err != nil {
		t.Fatal(err)
	}
	if at1 != Time(Millisecond) {
		t.Errorf("at1 = %v, want 1ms", at1)
	}
	if at2 != Time(Millisecond+Second) {
		t.Errorf("at2 = %v, want 1.001s", at2)
	}
	if end != at2 {
		t.Errorf("end = %v, want %v", end, at2)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(2*Second, func() { fired = true })
	end, err := e.Run(TimeFromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if end != TimeFromSeconds(1) {
		t.Errorf("end = %v, want 1s", end)
	}
	// Resuming runs the event.
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event did not fire after resume")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.At(0, func() {})
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("waiter", func(p *Proc) {
		p.BlockOn(why("message that never comes"))
	})
	_, err := e.Run(Forever)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
}

func TestNoDeadlockWhenUnblocked(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	p := e.Spawn("waiter", func(p *Proc) {
		p.BlockOn(why("signal"))
		woke = p.Now()
	})
	e.Schedule(3*Second, func() { p.Unblock() })
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke != TimeFromSeconds(3) {
		t.Errorf("woke at %v, want 3s", woke)
	}
}

func TestTimeConversions(t *testing.T) {
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationFromSeconds(1.5) = %v", d)
	}
	if s := (250 * Microsecond).Seconds(); s != 0.00025 {
		t.Errorf("Seconds = %v", s)
	}
	if ts := TimeFromSeconds(2).Add(500 * Millisecond); ts != TimeFromSeconds(2.5) {
		t.Errorf("Add = %v", ts)
	}
	if d := TimeFromSeconds(2.5).Sub(TimeFromSeconds(1)); d != 1500*Millisecond {
		t.Errorf("Sub = %v", d)
	}
	if DurationFromSeconds(-1) != 0 {
		t.Error("negative seconds should clamp to 0")
	}
}
