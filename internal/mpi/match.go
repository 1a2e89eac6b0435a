package mpi

// Matching contexts. User point-to-point traffic and internal collective
// traffic live in separate namespaces so a wildcard receive can never
// capture a collective's internal message.
const (
	ctxUser = iota
	ctxCollective
)

// AnySource and AnyTag are the receive wildcards (MPI_ANY_SOURCE,
// MPI_ANY_TAG). They are only legal in the user context.
const (
	AnySource = -1
	AnyTag    = -1
)

// rankState holds one rank's matching queues. All access happens in
// engine context, so no locking is needed.
type rankState struct {
	comm *Comm

	// unexpected holds envelopes that arrived before a matching receive
	// was posted, in arrival order (MPI's non-overtaking rule).
	unexpected []*envelope
	// posted holds receive requests not yet matched, in post order.
	posted []*Request
	// conns holds the rank's outgoing connections, indexed by
	// destination rank and made at its first send. Connections
	// resequence packets per directed rank pair, mirroring TCP's
	// in-order delivery (a retransmitted message blocks everything
	// behind it on the same connection).
	conns []*connection
}

// matches reports whether a posted receive accepts an envelope.
func matches(r *Request, env *envelope) bool {
	if r.ctx != env.ctx {
		return false
	}
	if r.src != AnySource && r.src != env.src {
		return false
	}
	if r.tag != AnyTag && r.tag != env.tag {
		return false
	}
	return true
}

// arriveEnvelope processes a newly delivered envelope (eager payload or
// rendezvous RTS): match it against the oldest posted receive, or queue
// it as unexpected.
//
//detlint:hotpath
func (rs *rankState) arriveEnvelope(w *World, env *envelope) {
	for i, r := range rs.posted {
		if matches(r, env) {
			rs.posted = append(rs.posted[:i], rs.posted[i+1:]...)
			w.matchEnvelope(r, env)
			return
		}
	}
	rs.unexpected = append(rs.unexpected, env)
	w.mUnexpMax.SetMax(int64(len(rs.unexpected)))
	// Wake the rank. No wait blocks on an unexpected envelope, so the
	// wakeup is spurious and harmless (waits re-check); it stays because
	// dropping it changes every pinned event count.
	if rs.comm != nil && rs.comm.proc != nil {
		rs.comm.proc.Unblock()
	}
}

// postRecv registers a receive request: match the oldest compatible
// unexpected envelope, or queue the request.
//
//detlint:hotpath
func (rs *rankState) postRecv(w *World, r *Request) {
	for i, env := range rs.unexpected {
		if matches(r, env) {
			rs.unexpected = append(rs.unexpected[:i], rs.unexpected[i+1:]...)
			w.matchEnvelope(r, env)
			return
		}
	}
	rs.posted = append(rs.posted, r)
}

// matchEnvelope binds an envelope to a receive request. Eager envelopes
// complete immediately (the payload travelled with them); rendezvous
// envelopes trigger the clear-to-send so the payload can flow.
//
//detlint:hotpath
func (w *World) matchEnvelope(r *Request, env *envelope) {
	env.matched = r
	if env.dataArrived {
		w.completeRecv(r, env)
		return
	}
	// Rendezvous: grant the sender clearance. MPICH sends the CTS from
	// within its progress engine; the receiving rank's CPU cost is
	// charged when the receive completes.
	w.sendPacket(env.dst, env.src, pktCTS, w.cfg.CtrlBytes, env)
}

// completeRecv finishes a receive request whose payload has arrived. The
// receive is the envelope's last reader, so the envelope goes back to
// the pool here.
//
//detlint:hotpath
func (w *World) completeRecv(r *Request, env *envelope) {
	w.completeRequest(r, Status{Source: env.src, Tag: env.tag, Size: env.size, Data: env.data})
	w.releaseEnvelope(env)
}

// completeRequest marks a request done and wakes its rank if it is
// blocked in Wait/Waitall.
//
//detlint:hotpath
func (w *World) completeRequest(r *Request, st Status) {
	if r.done {
		panic("mpi: request completed twice")
	}
	r.done = true
	r.st = st
	if c := r.c; c != nil && c.proc != nil {
		c.proc.Unblock()
	}
}
