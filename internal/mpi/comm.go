package mpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Status describes a completed receive (or, for sends, the message that
// was sent).
type Status struct {
	Source int
	Tag    int
	Size   int
	Data   any
}

// Request is a handle to an outstanding nonblocking operation. Requests
// come from the World's free list; the blocking calls, which never hand
// theirs to the caller, return them there once waited (releaseRequest),
// and a caller hands back the ones Isend and Irecv returned with Free.
type Request struct {
	c      *Comm
	isSend bool

	// Receive matching key.
	ctx, src, tag int
	// Send: the message's destination and size, kept here rather than
	// read from its envelope, which is recycled once the receive that
	// consumes it completes.
	dst, size int

	done       bool
	st         Status
	cpuCharged bool
}

// Comm is one rank's handle to the job — the equivalent of
// MPI_COMM_WORLD seen from that rank. All methods must be called from
// the rank's own program.
type Comm struct {
	w    *World
	rank int
	proc *sim.Proc
	// wait is the rank's Wait, Waitall or collective in progress, the
	// value its process blocks on.
	wait waitState
}

// waitState is the operation a rank is blocked in: a Wait or Waitall,
// or a collective. It is the rank's sim.Waiter: BlockOn and every wakeup
// ask its Woken, which does in event context what the rank would have
// done itself between wakeups. It re-checks the requests, charges them
// in order and sleeps through each receive's host cost; in a collective
// it then releases the step's requests and starts the next step, behind
// its send's host cost if it sends. The rank is switched in once, when
// the whole operation is done.
type waitState struct {
	c *Comm
	// rs holds the waited requests, copied so that a wait allocates
	// nothing; in a collective, the step's send and receive.
	rs []*Request
	// recv is the receive whose host cost the rank is sleeping
	// through, or nil.
	recv *Request
	// tag is the collective in progress, 0 in a Wait or Waitall; steps
	// are its steps and next indexes the next one to start. sending is
	// set while the rank sleeps through that step's send host cost.
	tag     int
	steps   []step
	next    int
	sending bool
}

// step is one step of a collective: send size bytes to dst, then
// receive from src, both under the collective's tag. A dst or src of
// -1 means the step has no send or no receive.
type step struct{ dst, src, size int }

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the job.
func (c *Comm) Size() int { return c.w.Size() }

// Now returns the current virtual time.
func (c *Comm) Now() sim.Time { return c.proc.Now() }

// hostCost draws an MPI-call overhead, the time the call occupies the
// rank's CPU: a base cost plus a per-byte copy cost, with multiplicative
// jitter and occasional OS scheduling spikes. The caller sleeps it, or
// has a wait's Woken answer with it.
//
//detlint:hotpath
func (c *Comm) hostCost(base float64, bytes int) sim.Duration {
	cfg := &c.w.cfg
	d := base + float64(bytes)*cfg.PerByteCPU
	if cfg.JitterSigma > 0 {
		f := 1 + cfg.JitterSigma*c.w.hosts.NormFloat64()
		if f < 0.5 {
			f = 0.5
		}
		d *= f
	}
	if cfg.SpikeProb > 0 && c.w.hosts.Bool(cfg.SpikeProb) {
		d += cfg.SpikeMin + (cfg.SpikeMax-cfg.SpikeMin)*c.w.hosts.Float64()
	}
	// NodeSlow faults stretch host costs by the factor active when the
	// call starts (a window closing mid-call keeps the stretched cost).
	d *= c.w.slowFactor(c.rank)
	return sim.DurationFromSeconds(d)
}

// Compute occupies the rank's CPU for a serial code segment of the given
// nominal duration, with the cluster's compute jitter applied. It is the
// execution-side counterpart of PEVPM's Serial directive.
func (c *Comm) Compute(seconds float64) {
	c.w.rec(c.rank, trace.ComputeStart, -1, 0, 0, "")
	d := c.w.compute.Duration(seconds, c.w.cpu) * c.w.slowFactor(c.rank)
	c.proc.Sleep(sim.DurationFromSeconds(d))
	c.w.rec(c.rank, trace.ComputeEnd, -1, 0, 0, "")
}

// checkPeer validates a peer rank.
func (c *Comm) checkPeer(op string, peer int) {
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d: %s peer %d out of range [0,%d)", c.rank, op, peer, c.Size()))
	}
}

// Isend starts a nonblocking standard send of size bytes to dst. For
// messages at or under the eager limit the request completes as soon as the
// payload is handed to the transport (MPICH buffers it); at or above the
// limit the rendezvous protocol runs and the request completes when the
// payload has reached the destination host.
func (c *Comm) Isend(dst, tag, size int) *Request {
	return c.isend(ctxUser, dst, tag, size, nil)
}

// IsendData is Isend carrying an opaque payload for the receiver.
func (c *Comm) IsendData(dst, tag, size int, data any) *Request {
	return c.isend(ctxUser, dst, tag, size, data)
}

// isend starts a send in matching context ctx (user or collective).
//
//detlint:hotpath
func (c *Comm) isend(ctx, dst, tag, size int, data any) *Request {
	c.checkPeer("Isend to", dst)
	if ctx == ctxUser {
		c.w.rec(c.rank, trace.SendStart, dst, tag, size, "")
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: rank %d: send tag %d must be non-negative", c.rank, tag))
	}
	c.checkSize(size)
	c.proc.Sleep(c.hostCost(c.w.cfg.SendOverhead, size))
	return c.startSend(ctx, dst, tag, size, data)
}

// checkSize rejects a negative message size.
func (c *Comm) checkSize(size int) {
	if size < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative message size %d", c.rank, size))
	}
}

// startSend hands a send whose host cost the rank has slept through to
// the transport: the half of isend after its sleep.
//
//detlint:hotpath
func (c *Comm) startSend(ctx, dst, tag, size int, data any) *Request {
	cfg := &c.w.cfg
	env := c.w.acquireEnvelope()
	env.src, env.dst, env.ctx, env.tag, env.size, env.data = c.rank, dst, ctx, tag, size, data
	r := c.w.acquireRequest(c, ctx, c.rank, tag)
	r.isSend, r.dst, r.size = true, dst, size
	c.w.mSendBytes.Add(uint64(size))
	if size <= cfg.EagerLimit {
		// Eager: payload travels with the envelope; locally complete.
		c.w.mEager.Inc()
		c.w.sendPacket(c.rank, dst, pktEager, size, env)
		c.w.completeRequest(r, Status{Source: c.rank, Tag: tag, Size: size})
		return r
	}
	// Rendezvous: announce with an RTS and wait for clearance.
	c.w.mRendezvous.Inc()
	env.sender = r
	c.w.sendPacket(c.rank, dst, pktRTS, cfg.CtrlBytes, env)
	return r
}

// Irecv posts a nonblocking receive matching (src, tag); src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Irecv(src, tag int) *Request {
	return c.irecv(ctxUser, src, tag)
}

// irecv posts a receive in matching context ctx (user or collective).
//
//detlint:hotpath
func (c *Comm) irecv(ctx, src, tag int) *Request {
	if src != AnySource {
		c.checkPeer("Irecv from", src)
	}
	if ctx == ctxUser {
		c.w.rec(c.rank, trace.RecvPost, src, tag, 0, "")
	}
	if tag < AnyTag {
		panic(fmt.Sprintf("mpi: rank %d: recv tag %d invalid", c.rank, tag))
	}
	r := c.w.acquireRequest(c, ctx, src, tag)
	c.w.ranks[c.rank].postRecv(c.w, r)
	return r
}

// Wait blocks until the request completes and returns its status. For
// receives, the host-side completion cost (interrupt handling plus the
// copy out of socket buffers) is charged here.
func (c *Comm) Wait(r *Request) Status {
	if r.c != c {
		panic("mpi: Wait on a request from another rank")
	}
	c.waitFor([]*Request{r})
	return r.st
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(rs ...*Request) {
	for _, r := range rs {
		if r.c != c {
			panic("mpi: Waitall on a request from another rank")
		}
	}
	c.waitFor(rs)
}

// waitFor blocks until every request in rs completes and is charged:
// the rank's wait state charges them in event context.
//
//detlint:hotpath
func (c *Comm) waitFor(rs []*Request) {
	ws := &c.wait
	ws.rs = append(ws.rs[:0], rs...)
	c.proc.BlockOn(ws)
	clear(ws.rs)
	ws.rs = ws.rs[:0]
}

// collective blocks the rank until the steps its collective tag has
// appended to the wait state (waitState.add) are done: the wait state
// runs them in event context.
//
//detlint:hotpath
func (c *Comm) collective(tag int) {
	ws := &c.wait
	ws.tag = tag
	c.proc.BlockOn(ws)
}

// add appends a step to the collective the rank is about to run.
//
//detlint:hotpath
func (ws *waitState) add(dst, src, size int) {
	ws.steps = append(ws.steps, step{dst, src, size})
}

// Woken answers BlockOn and every wakeup of the rank blocked on its
// wait state (see waitState). It stays blocked while a request is
// pending, and otherwise charges the requests in order, sleeping through
// each receive's host cost. A Wait or Waitall then runs the rank; a
// collective releases the step's requests and goes on to its next step,
// and runs the rank after the last.
//
//detlint:hotpath
func (ws *waitState) Woken() (sim.WakeAction, sim.Duration) {
	c := ws.c
	switch {
	case ws.sending: // the step's send host cost is slept: start it
		ws.sending = false
		ws.start()
	case ws.recv != nil: // the receive's host cost is slept
		c.recvEnd(ws.recv)
		ws.recv = nil
	}
	for {
		for _, r := range ws.rs {
			if !r.done {
				return sim.WakeStay, 0
			}
		}
		for _, r := range ws.rs {
			switch {
			case r.cpuCharged: // already charged
			case r.isSend:
				c.chargeSend(r)
			default:
				ws.recv = r
				return sim.WakeSleep, c.chargeRecv(r)
			}
		}
		if ws.tag == 0 {
			return sim.WakeRun, 0
		}
		for _, r := range ws.rs {
			c.w.releaseRequest(r)
		}
		clear(ws.rs)
		ws.rs = ws.rs[:0]
		if ws.next == len(ws.steps) {
			ws.tag, ws.steps, ws.next = 0, ws.steps[:0], 0
			return sim.WakeRun, 0
		}
		if s := ws.steps[ws.next]; s.dst >= 0 {
			ws.sending = true
			return sim.WakeSleep, c.hostCost(c.w.cfg.SendOverhead, s.size)
		}
		ws.start()
	}
}

// start begins the collective's next step, whose send host cost, if it
// sends, is slept: it starts the send, then posts the receive.
//
//detlint:hotpath
func (ws *waitState) start() {
	c, s := ws.c, ws.steps[ws.next]
	ws.next++
	if s.dst >= 0 {
		ws.rs = append(ws.rs, c.startSend(ctxCollective, s.dst, ws.tag, s.size, nil))
	}
	if s.src >= 0 {
		ws.rs = append(ws.rs, c.irecv(ctxCollective, s.src, ws.tag))
	}
}

// BlockReason names the wait's first pending request, the one deadlock
// reports describe.
func (ws *waitState) BlockReason() string {
	for _, r := range ws.rs {
		if !r.done {
			return r.BlockReason()
		}
	}
	return "Wait" // not reached while blocked: a completion unblocks the rank
}

// chargeSend marks a completed send waited and records its end.
//
//detlint:hotpath
func (c *Comm) chargeSend(r *Request) {
	r.cpuCharged = true
	if r.ctx == ctxUser {
		c.w.rec(c.rank, trace.SendEnd, r.dst, r.tag, r.size, "")
	}
}

// chargeRecv marks a completed receive waited and draws its host cost,
// which the rank then sleeps through before recvEnd.
//
//detlint:hotpath
func (c *Comm) chargeRecv(r *Request) sim.Duration {
	r.cpuCharged = true
	return c.hostCost(c.w.cfg.RecvOverhead, r.st.Size)
}

// recvEnd records a charged receive's end.
func (c *Comm) recvEnd(r *Request) {
	if r.ctx == ctxUser {
		c.w.rec(c.rank, trace.RecvEnd, r.st.Source, r.st.Tag, r.st.Size, "")
	}
}

// Free hands requests the caller has waited for back to the World's
// free list, so a steady stream of Isend and Irecv calls allocates no
// requests. A freed request must not be used again. Free panics on a
// request of another rank (a freed one included) and on one that is not
// complete or not waited for.
//
//detlint:hotpath
func (c *Comm) Free(rs ...*Request) {
	for _, r := range rs {
		if r.c != c {
			panic("mpi: Free of a request from another rank or already freed")
		}
		if !r.done || !r.cpuCharged {
			panic("mpi: Free of a request not waited for")
		}
		c.w.releaseRequest(r)
	}
}

// BlockReason describes a pending operation for deadlock reports.
func (r *Request) BlockReason() string {
	if r.isSend {
		return fmt.Sprintf("Wait(send to %d tag %d size %d)", r.dst, r.tag, r.size)
	}
	return fmt.Sprintf("Wait(recv src %d tag %d)", r.src, r.tag)
}

// Send is a blocking standard send: for eager messages it returns once
// the payload is buffered locally; for rendezvous messages it blocks
// until the payload reaches the destination.
func (c *Comm) Send(dst, tag, size int) {
	c.waitFree(c.Isend(dst, tag, size))
}

// SendData is Send carrying an opaque payload.
func (c *Comm) SendData(dst, tag, size int, data any) {
	c.waitFree(c.IsendData(dst, tag, size, data))
}

// Recv blocks until a matching message arrives and returns its status.
func (c *Comm) Recv(src, tag int) Status {
	return c.waitFree(c.Irecv(src, tag))
}

// Sendrecv posts both operations concurrently and waits for both, the
// deadlock-free exchange idiom.
func (c *Comm) Sendrecv(dst, sendTag, size, src, recvTag int) Status {
	rr := c.Irecv(src, recvTag)
	sr := c.Isend(dst, sendTag, size)
	c.Waitall(sr, rr)
	st := rr.st
	c.w.releaseRequest(sr)
	c.w.releaseRequest(rr)
	return st
}

// waitFree is Wait for a request no caller holds: once it completes, it
// goes back to the World's free list.
func (c *Comm) waitFree(r *Request) Status {
	st := c.Wait(r)
	c.w.releaseRequest(r)
	return st
}
