// Package trace records per-rank timelines of simulated MPI executions:
// when each rank computed, sent, received and waited. MPIBench measures
// one operation in isolation; a trace shows a whole program's
// time-structure, which is what PEVPM predicts — comparing the two is
// how mispredictions get localised.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	SendStart Kind = iota // rank began a send operation
	SendEnd               // send locally complete (eager) or delivered (rendezvous)
	RecvPost              // receive posted
	RecvEnd               // receive completed (payload picked up)
	ComputeStart
	ComputeEnd
	CollectiveStart
	CollectiveEnd
	FaultBegin // a fault-schedule window opens (Tag = rule index, Peer = target)
	FaultEnd   // the window closes
	NetRetry   // a transfer completed only after TCP retransmissions (Tag = retry count)
)

var kindNames = map[Kind]string{
	SendStart: "send-start", SendEnd: "send-end",
	RecvPost: "recv-post", RecvEnd: "recv-end",
	ComputeStart: "compute-start", ComputeEnd: "compute-end",
	CollectiveStart: "coll-start", CollectiveEnd: "coll-end",
	FaultBegin: "fault-begin", FaultEnd: "fault-end",
	NetRetry: "net-retry",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timeline entry.
type Event struct {
	Time sim.Time
	Rank int
	Kind Kind
	Peer int // other rank for point-to-point; -1 otherwise
	Tag  int
	Size int
	Note string // collective name, etc.
}

// Log collects events from one run. It is not safe for concurrent use;
// the simulation kernel is single-threaded, so that is not a
// restriction in practice.
type Log struct {
	events  []Event
	limit   int
	dropped int
}

// NewLog returns a log that keeps at most limit events (0 = unlimited).
// The limit guards long benchmark runs against unbounded memory.
func NewLog(limit int) *Log { return &Log{limit: limit} }

// Record appends an event. Once the log reaches its limit further events
// are counted as dropped rather than silently discarded: a truncated log
// has dangling RecvPost/CollectiveStart brackets, and exporters use
// Dropped to annotate their output instead of misreporting.
func (l *Log) Record(ev Event) {
	if l.limit > 0 && len(l.events) >= l.limit {
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Dropped reports how many events were discarded after the log filled.
// A non-zero count means summaries and exports describe a truncated
// timeline.
func (l *Log) Dropped() int { return l.dropped }

// Truncated reports whether any events were dropped.
func (l *Log) Truncated() bool { return l.dropped > 0 }

// TruncationNote is the line that annotates a truncated timeline under
// a text export, or "" when the log dropped nothing.
func (l *Log) TruncationNote() string {
	if !l.Truncated() {
		return ""
	}
	return fmt.Sprintf("!! trace truncated: %d further event(s) dropped at the %d-event limit\n",
		l.Dropped(), l.limit)
}

// Events returns the recorded events in time order (stable for equal
// timestamps).
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// matchRecv picks the open RecvPost a RecvEnd pairs with. The end event
// carries the actual (source, tag) of the delivered message; the posted
// receive may name them exactly or use wildcards (negative peer/tag).
// Preference order: exact (peer, tag) match, then a wildcard-compatible
// post, then plain FIFO — each FIFO among equals, so overlapping
// nonblocking receives of distinct peers or tags are attributed to the
// receive that actually completed rather than whichever was posted
// first. Returns -1 when no post is open.
func matchRecv(open []Event, end Event) int {
	if len(open) == 0 {
		return -1
	}
	wildcard := -1
	for i, post := range open {
		if post.Peer == end.Peer && post.Tag == end.Tag {
			return i
		}
		if wildcard < 0 &&
			(post.Peer < 0 || post.Peer == end.Peer) &&
			(post.Tag < 0 || post.Tag == end.Tag) {
			wildcard = i
		}
	}
	if wildcard >= 0 {
		return wildcard
	}
	return 0 // mismatched brackets: fall back to FIFO rather than dropping
}

// RankSummary aggregates one rank's activity.
type RankSummary struct {
	Rank         int
	Sends, Recvs int
	BytesSent    int
	Compute      sim.Duration
	RecvWait     sim.Duration // time between recv-post and recv-end
	Finish       sim.Time
}

// Summaries aggregates the log per rank.
func (l *Log) Summaries() []RankSummary {
	byRank := map[int]*RankSummary{}
	get := func(r int) *RankSummary {
		s, ok := byRank[r]
		if !ok {
			s = &RankSummary{Rank: r}
			byRank[r] = s
		}
		return s
	}
	// Track open intervals per rank.
	computeOpen := map[int]sim.Time{}
	recvOpen := map[int][]Event{} // posted-but-unfinished receives
	for _, ev := range l.Events() {
		if ev.Kind == FaultBegin || ev.Kind == FaultEnd {
			continue // schedule annotations, not rank activity
		}
		s := get(ev.Rank)
		if ev.Time > s.Finish {
			s.Finish = ev.Time
		}
		switch ev.Kind {
		case SendStart:
			s.Sends++
			s.BytesSent += ev.Size
		case RecvPost:
			recvOpen[ev.Rank] = append(recvOpen[ev.Rank], ev)
		case RecvEnd:
			s.Recvs++
			if i := matchRecv(recvOpen[ev.Rank], ev); i >= 0 {
				stack := recvOpen[ev.Rank]
				s.RecvWait += ev.Time.Sub(stack[i].Time)
				recvOpen[ev.Rank] = append(stack[:i:i], stack[i+1:]...)
			}
		case ComputeStart:
			computeOpen[ev.Rank] = ev.Time
		case ComputeEnd:
			if t0, ok := computeOpen[ev.Rank]; ok {
				s.Compute += ev.Time.Sub(t0)
				delete(computeOpen, ev.Rank)
			}
		}
	}
	out := make([]RankSummary, 0, len(byRank))
	for _, s := range byRank {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Gantt renders an ASCII utilisation chart: one row per rank, the run
// divided into cols buckets, each cell showing the rank's dominant
// activity in that bucket (C compute, s send, r receive-wait, idle '.').
// A truncated log's chart ends with its TruncationNote.
func (l *Log) Gantt(cols int) string {
	return l.gantt(cols) + l.TruncationNote()
}

func (l *Log) gantt(cols int) string {
	all := l.Events()
	// Fault-window annotations are not rank activity and may extend past
	// the run; charting them would stretch the time axis.
	events := all[:0:0]
	for _, ev := range all {
		if ev.Kind != FaultBegin && ev.Kind != FaultEnd {
			events = append(events, ev)
		}
	}
	if len(events) == 0 || cols <= 0 {
		return ""
	}
	end := events[len(events)-1].Time
	if end == 0 {
		return ""
	}
	ranks := map[int]bool{}
	for _, ev := range events {
		ranks[ev.Rank] = true
	}
	var rankIDs []int
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)

	bucketOf := func(t sim.Time) int {
		b := int(int64(t) * int64(cols) / int64(end))
		if b >= cols {
			b = cols - 1
		}
		return b
	}
	// Fill per-rank rows: mark intervals.
	rows := map[int][]byte{}
	for _, r := range rankIDs {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		rows[r] = row
	}
	mark := func(rank int, from, to sim.Time, ch byte) {
		row := rows[rank]
		for b := bucketOf(from); b <= bucketOf(to); b++ {
			// Compute beats wait beats idle when buckets straddle.
			if row[b] == '.' || ch == 'C' {
				row[b] = ch
			}
		}
	}
	computeOpen := map[int]sim.Time{}
	recvOpen := map[int][]Event{}
	for _, ev := range events {
		switch ev.Kind {
		case ComputeStart:
			computeOpen[ev.Rank] = ev.Time
		case ComputeEnd:
			if t0, ok := computeOpen[ev.Rank]; ok {
				mark(ev.Rank, t0, ev.Time, 'C')
				delete(computeOpen, ev.Rank)
			}
		case RecvPost:
			recvOpen[ev.Rank] = append(recvOpen[ev.Rank], ev)
		case RecvEnd:
			if i := matchRecv(recvOpen[ev.Rank], ev); i >= 0 {
				stack := recvOpen[ev.Rank]
				mark(ev.Rank, stack[i].Time, ev.Time, 'r')
				recvOpen[ev.Rank] = append(stack[:i:i], stack[i+1:]...)
			}
		case SendStart:
			mark(ev.Rank, ev.Time, ev.Time, 's')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "0%s%v\n", strings.Repeat(" ", cols-len(end.String())), end)
	for _, r := range rankIDs {
		fmt.Fprintf(&b, "rank%-4d %s\n", r, rows[r])
	}
	return b.String()
}
