package sim

import "testing"

func TestSerializerFIFO(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	const service = 10 * Millisecond
	var predicted, ends []Time
	for i := 0; i < 3; i++ {
		predicted = append(predicted, s.Enqueue(service, func() { ends = append(ends, e.Now()) }))
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		wantStart := Time(Duration(i) * service)
		if start := predicted[i].Add(-service); start != wantStart {
			t.Errorf("request %d started at %v, want %v", i, start, wantStart)
		}
		if ends[i] != wantStart.Add(service) || ends[i] != predicted[i] {
			t.Errorf("request %d ended at %v, predicted %v, want %v", i, ends[i], predicted[i], wantStart.Add(service))
		}
	}
}

func TestSerializerIdleGap(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	var secondStart Time
	s.Enqueue(Millisecond, nil)
	e.Schedule(10*Millisecond, func() {
		secondStart = s.Enqueue(Millisecond, func() {}).Add(-Millisecond)
	})
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	// The server was idle, so the second request starts immediately.
	if secondStart != TimeFromSeconds(0.010) {
		t.Errorf("second start = %v, want 10ms", secondStart)
	}
}

func TestSerializerReturnValueMatchesCallback(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	var cbEnd Time
	predicted := s.Enqueue(7*Millisecond, func() { cbEnd = e.Now() })
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if predicted != cbEnd {
		t.Errorf("predicted end %v != callback end %v", predicted, cbEnd)
	}
}

// TestSerializerSchedulesOnlyCallbacks pins the serializer's event
// budget: a request nobody waits for schedules nothing, and one with a
// callback schedules exactly that callback at the request's end.
func TestSerializerSchedulesOnlyCallbacks(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	s.Enqueue(5*Millisecond, nil)
	if e.queued() != 0 || e.mScheduled.Value() != 0 {
		t.Fatalf("Enqueue without a callback left %d pending, %d scheduled; want 0, 0",
			e.queued(), e.mScheduled.Value())
	}
	calls := 0
	var at Time
	end := s.Enqueue(3*Millisecond, func() { calls++; at = e.Now() })
	if e.queued() != 1 || e.mScheduled.Value() != 1 {
		t.Fatalf("Enqueue with a callback left %d pending, %d scheduled; want 1, 1",
			e.queued(), e.mScheduled.Value())
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || at != end || end != TimeFromSeconds(0.008) {
		t.Errorf("callback ran %d times at %v; want once at the returned end %v (8ms)", calls, at, end)
	}
}

func TestSerializerBacklog(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	if s.Backlog() != 0 {
		t.Error("idle server should have zero backlog")
	}
	s.Enqueue(5*Millisecond, nil)
	// Only a callback schedules an event, so this one carries the clock
	// to the end of the backlog.
	s.Enqueue(5*Millisecond, func() {})
	if s.Backlog() != 10*Millisecond {
		t.Errorf("backlog = %v, want 10ms", s.Backlog())
	}
	if _, err := e.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if s.Backlog() != 0 {
		t.Error("server should drain completely")
	}
	if s.BusyTime() != 10*Millisecond {
		t.Errorf("busy time = %v, want 10ms", s.BusyTime())
	}
}

func TestSerializerNegativeServicePanics(t *testing.T) {
	e := NewEngine(1)
	s := NewSerializer(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative service time")
		}
	}()
	s.Enqueue(-1, nil)
}
