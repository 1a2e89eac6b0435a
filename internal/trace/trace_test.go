package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func ev(t float64, rank int, kind Kind) Event {
	return Event{Time: sim.TimeFromSeconds(t), Rank: rank, Kind: kind, Peer: -1}
}

func TestLogOrderingAndLimit(t *testing.T) {
	l := NewLog(3)
	l.Record(ev(3, 0, SendStart))
	l.Record(ev(1, 0, SendStart))
	l.Record(ev(2, 0, SendStart))
	l.Record(ev(4, 0, SendStart)) // beyond the limit: dropped
	if n := len(l.Events()); n != 3 {
		t.Fatalf("len = %d", n)
	}
	events := l.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("events not time-sorted")
		}
	}
	if events[2].Time != sim.TimeFromSeconds(3) {
		t.Error("limit dropped the wrong event")
	}
}

func TestSummaries(t *testing.T) {
	l := NewLog(0)
	// rank 0: compute 1s, send 100B; rank 1: recv waits 0.5s.
	l.Record(Event{Time: 0, Rank: 0, Kind: ComputeStart})
	l.Record(Event{Time: sim.TimeFromSeconds(1), Rank: 0, Kind: ComputeEnd})
	l.Record(Event{Time: sim.TimeFromSeconds(1), Rank: 0, Kind: SendStart, Peer: 1, Size: 100})
	l.Record(Event{Time: sim.TimeFromSeconds(0.6), Rank: 1, Kind: RecvPost, Peer: 0})
	l.Record(Event{Time: sim.TimeFromSeconds(1.1), Rank: 1, Kind: RecvEnd, Peer: 0, Size: 100})
	sums := l.Summaries()
	if len(sums) != 2 {
		t.Fatalf("%d summaries", len(sums))
	}
	r0, r1 := sums[0], sums[1]
	if r0.Rank != 0 || r1.Rank != 1 {
		t.Fatal("summaries not sorted by rank")
	}
	if r0.Compute != sim.Second || r0.Sends != 1 || r0.BytesSent != 100 {
		t.Errorf("rank0 summary: %+v", r0)
	}
	if r1.Recvs != 1 || r1.RecvWait != 500*sim.Millisecond {
		t.Errorf("rank1 summary: %+v", r1)
	}
}

func TestGantt(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: 0, Rank: 0, Kind: ComputeStart})
	l.Record(Event{Time: sim.TimeFromSeconds(1), Rank: 0, Kind: ComputeEnd})
	l.Record(Event{Time: 0, Rank: 1, Kind: RecvPost, Peer: 0})
	l.Record(Event{Time: sim.TimeFromSeconds(1), Rank: 1, Kind: RecvEnd, Peer: 0})
	g := l.Gantt(20)
	if !strings.Contains(g, "rank0") || !strings.Contains(g, "rank1") {
		t.Fatalf("gantt missing ranks:\n%s", g)
	}
	if !strings.Contains(g, "C") {
		t.Errorf("gantt missing compute cells:\n%s", g)
	}
	if !strings.Contains(g, "r") {
		t.Errorf("gantt missing recv-wait cells:\n%s", g)
	}
	if NewLog(0).Gantt(10) != "" {
		t.Error("empty log should render empty gantt")
	}
}

func TestKindString(t *testing.T) {
	if SendStart.String() != "send-start" || RecvEnd.String() != "recv-end" {
		t.Error("kind names broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting broken")
	}
}
