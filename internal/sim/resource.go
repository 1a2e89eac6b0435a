package sim

// Serializer models a work-conserving FIFO server — a network link, a NIC
// transmit engine, a disk — that serves requests one at a time. Instead of
// holding per-request events while waiting, it tracks the time the server
// becomes free, so enqueueing is O(1), and a request's completion is
// scheduled only when a caller asks to be told: a request nobody waits
// for costs no event at all. This "fluid FIFO" is the workhorse of the
// network model: it is orders of magnitude cheaper than modelling every
// frame yet preserves exact FIFO queueing delays.
type Serializer struct {
	e         *Engine
	busyUntil Time
	busyAccum Duration
}

// NewSerializer returns an idle FIFO server attached to the engine.
func NewSerializer(e *Engine) *Serializer {
	return &Serializer{e: e}
}

// Enqueue appends a request needing the given service time and returns
// the time the request will complete. If done is non-nil it runs at that
// time, as the request's one event (its start is the end less the
// service); if done is nil, no event is scheduled. FIFO order is exact:
// the request starts when every previously enqueued request has finished.
//
//detlint:hotpath
func (s *Serializer) Enqueue(service Duration, done func()) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	start := s.e.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end := start.Add(service)
	s.busyUntil = end
	s.busyAccum += service
	if done != nil {
		s.e.At(end, done)
	}
	return end
}

// Backlog returns how far in the future the server is already committed:
// the delay a zero-length request enqueued now would wait before starting.
func (s *Serializer) Backlog() Duration {
	if s.busyUntil <= s.e.now {
		return 0
	}
	return s.busyUntil.Sub(s.e.now)
}

// BusyTime returns cumulative service time accepted so far; divided by
// elapsed virtual time it gives the offered utilisation.
func (s *Serializer) BusyTime() Duration { return s.busyAccum }
