package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestChromeTraceExport(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: 0, Rank: 0, Kind: ComputeStart, Peer: -1})
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: 0, Kind: ComputeEnd, Peer: -1})
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: 0, Kind: SendStart, Peer: 1, Tag: 2, Size: 64})
	l.Record(Event{Time: 0, Rank: 1, Kind: RecvPost, Peer: 0, Tag: 2})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0015), Rank: 1, Kind: RecvEnd, Peer: 0, Tag: 2, Size: 64})
	l.Record(Event{Time: sim.TimeFromSeconds(0.002), Rank: 0, Kind: CollectiveStart, Peer: -1, Note: "Barrier"})
	l.Record(Event{Time: sim.TimeFromSeconds(0.003), Rank: 0, Kind: CollectiveEnd, Peer: -1, Note: "Barrier"})

	var b strings.Builder
	if err := l.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
		if ev["ph"] == "X" && ev["dur"].(float64) <= 0 {
			t.Errorf("duration event with non-positive dur: %v", ev)
		}
	}
	for _, want := range []string{"compute", "recv", "send->1", "Barrier"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q events (have %v)", want, names)
		}
	}
	// The recv duration spans post to end: 1500 µs.
	for _, ev := range events {
		if ev["name"] == "recv" {
			if dur := ev["dur"].(float64); dur < 1499 || dur > 1501 {
				t.Errorf("recv dur = %v µs, want 1500", dur)
			}
		}
	}
}

// decodeChrome parses the exporter's JSON array.
func decodeChrome(t *testing.T, l *Log) []map[string]any {
	t.Helper()
	var b strings.Builder
	if err := l.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	return events
}

// Two Irecvs posted back-to-back for different peers, completing in the
// opposite order: FIFO pairing would attribute the long wait to the
// short receive and vice versa. Matching by (peer, tag) must keep each
// duration with the receive that produced it.
func TestChromeTraceInterleavedIrecvs(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: 0, Rank: 0, Kind: RecvPost, Peer: 1, Tag: 5})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0001), Rank: 0, Kind: RecvPost, Peer: 2, Tag: 6})
	// The second-posted receive completes first.
	l.Record(Event{Time: sim.TimeFromSeconds(0.0005), Rank: 0, Kind: RecvEnd, Peer: 2, Tag: 6, Size: 32})
	l.Record(Event{Time: sim.TimeFromSeconds(0.002), Rank: 0, Kind: RecvEnd, Peer: 1, Tag: 5, Size: 64})

	durs := map[int]float64{} // keyed by "from"
	for _, ev := range decodeChrome(t, l) {
		if ev["name"] == "recv" {
			from := int(ev["args"].(map[string]any)["from"].(float64))
			durs[from] = ev["dur"].(float64)
		}
	}
	if len(durs) != 2 {
		t.Fatalf("want 2 recv events, got %v", durs)
	}
	// peer 2's receive spans 100µs..500µs = 400µs; peer 1's 0..2000µs.
	if d := durs[2]; d < 399 || d > 401 {
		t.Errorf("recv from 2: dur = %vµs, want 400 (FIFO misattribution?)", d)
	}
	if d := durs[1]; d < 1999 || d > 2001 {
		t.Errorf("recv from 1: dur = %vµs, want 2000 (FIFO misattribution?)", d)
	}
}

// A wildcard post must still pair (FIFO fallback) with whatever message
// completed it.
func TestChromeTraceWildcardRecv(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: 0, Rank: 0, Kind: RecvPost, Peer: -1, Tag: -1})
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: 0, Kind: RecvEnd, Peer: 3, Tag: 9, Size: 8})
	found := false
	for _, ev := range decodeChrome(t, l) {
		if ev["name"] == "recv" {
			found = true
			if d := ev["dur"].(float64); d < 999 || d > 1001 {
				t.Errorf("wildcard recv dur = %vµs, want 1000", d)
			}
		}
	}
	if !found {
		t.Error("wildcard receive not exported")
	}
}

// Fault windows must land on their own track (pid 1) with a process
// name, paired by rule index.
func TestChromeTraceFaultTrack(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: -1, Kind: FaultBegin, Peer: 4, Tag: 0, Note: "nic-outage"})
	l.Record(Event{Time: sim.TimeFromSeconds(0.003), Rank: -1, Kind: FaultEnd, Peer: 4, Tag: 0, Note: "nic-outage"})
	l.Record(Event{Time: 0, Rank: 0, Kind: ComputeStart})
	l.Record(Event{Time: sim.TimeFromSeconds(0.004), Rank: 0, Kind: ComputeEnd})

	var window map[string]any
	named := false
	for _, ev := range decodeChrome(t, l) {
		if ev["name"] == "nic-outage" {
			window = ev
		}
		if ev["name"] == "process_name" && int(ev["pid"].(float64)) == chromePIDFaults {
			named = true
		}
	}
	if window == nil {
		t.Fatal("fault window missing from export")
	}
	if pid := int(window["pid"].(float64)); pid != chromePIDFaults {
		t.Errorf("fault window on pid %d, want dedicated track %d", pid, chromePIDFaults)
	}
	if d := window["dur"].(float64); d < 1999 || d > 2001 {
		t.Errorf("fault window dur = %vµs, want 2000", d)
	}
	if !named {
		t.Error("faults track has no process_name metadata")
	}
}

// A truncated log must say so in the export instead of pretending the
// timeline is complete.
func TestChromeTraceTruncationAnnotated(t *testing.T) {
	l := NewLog(2)
	l.Record(Event{Time: 0, Rank: 0, Kind: ComputeStart})
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: 0, Kind: ComputeEnd})
	l.Record(Event{Time: sim.TimeFromSeconds(0.002), Rank: 0, Kind: SendStart, Peer: 1})
	if l.Dropped() != 1 || !l.Truncated() {
		t.Fatalf("Dropped = %d, want 1", l.Dropped())
	}
	found := false
	for _, ev := range decodeChrome(t, l) {
		if ev["name"] == "trace-truncated" {
			found = true
			if n := int(ev["args"].(map[string]any)["dropped"].(float64)); n != 1 {
				t.Errorf("annotation reports %d dropped, want 1", n)
			}
		}
	}
	if !found {
		t.Error("truncated log exported without annotation")
	}
}

// TestGanttTruncationAnnotated: a log whose limit is a few events ends
// its chart with the truncation line, and an untruncated log's chart
// carries none.
func TestGanttTruncationAnnotated(t *testing.T) {
	record := func(l *Log) {
		for i := 0; i < 5; i++ {
			at := sim.TimeFromSeconds(0.001 * float64(i))
			l.Record(Event{Time: at, Rank: 0, Kind: ComputeStart})
			l.Record(Event{Time: at.Add(500 * sim.Microsecond), Rank: 0, Kind: ComputeEnd})
		}
	}
	full := NewLog(0)
	record(full)
	if g := full.Gantt(20); strings.Contains(g, "truncated") {
		t.Errorf("complete log's chart claims truncation:\n%s", g)
	}
	l := NewLog(4)
	record(l)
	g := l.Gantt(20)
	if !strings.HasSuffix(g, "!! trace truncated: 6 further event(s) dropped at the 4-event limit\n") {
		t.Errorf("chart of a truncated log does not end with its truncation line:\n%s", g)
	}
	if !strings.HasPrefix(g, "0 ") || !strings.Contains(g, "rank0") {
		t.Errorf("truncation line replaced the chart:\n%s", g)
	}
}

// Summaries must use the same per-request matching: the interleaved
// pattern above, FIFO-paired, would report 2.4ms of recv wait instead of
// the true 2.3ms.
func TestSummariesInterleavedRecvWait(t *testing.T) {
	l := NewLog(0)
	l.Record(Event{Time: 0, Rank: 0, Kind: RecvPost, Peer: 1, Tag: 5})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0001), Rank: 0, Kind: RecvPost, Peer: 2, Tag: 6})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0005), Rank: 0, Kind: RecvEnd, Peer: 2, Tag: 6})
	l.Record(Event{Time: sim.TimeFromSeconds(0.002), Rank: 0, Kind: RecvEnd, Peer: 1, Tag: 5})
	sums := l.Summaries()
	if len(sums) != 1 {
		t.Fatalf("%d summaries", len(sums))
	}
	want := 400*sim.Microsecond + 2000*sim.Microsecond
	if sums[0].RecvWait != want {
		t.Errorf("RecvWait = %v, want %v", sums[0].RecvWait, want)
	}
}

func TestChromeTraceNestedCollectives(t *testing.T) {
	l := NewLog(0)
	// Allreduce wraps Reduce: brackets nest and must pair innermost-first.
	l.Record(Event{Time: 0, Rank: 0, Kind: CollectiveStart, Note: "Allreduce"})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0001), Rank: 0, Kind: CollectiveStart, Note: "Reduce"})
	l.Record(Event{Time: sim.TimeFromSeconds(0.0005), Rank: 0, Kind: CollectiveEnd, Note: "Reduce"})
	l.Record(Event{Time: sim.TimeFromSeconds(0.001), Rank: 0, Kind: CollectiveEnd, Note: "Allreduce"})
	var b strings.Builder
	if err := l.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Reduce") || !strings.Contains(out, "Allreduce") {
		t.Errorf("nested collectives lost: %s", out)
	}
}
