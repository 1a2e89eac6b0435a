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
// theirs to the caller, return them there once waited (releaseRequest).
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
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the job.
func (c *Comm) Size() int { return c.w.Size() }

// Now returns the current virtual time.
func (c *Comm) Now() sim.Time { return c.proc.Now() }

// hostCost occupies the rank's CPU for an MPI-call overhead: a base cost
// plus a per-byte copy cost, with multiplicative jitter and occasional
// OS scheduling spikes.
//
//detlint:hotpath
func (c *Comm) hostCost(base float64, bytes int) {
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
	c.proc.Sleep(sim.DurationFromSeconds(d))
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

// checkPeer validates a peer rank. In lint mode the violation is first
// recorded as a structured finding so it survives the panic that aborts
// the simulation and can be reported as a diagnostic.
func (c *Comm) checkPeer(op string, peer int) {
	if peer < 0 || peer >= c.Size() {
		msg := fmt.Sprintf("%s peer %d out of range [0,%d)", op, peer, c.Size())
		if c.w.lint != nil {
			c.w.lint.record(SeverityError, RulePeerRange, c.rank, "%s", msg)
		}
		panic(fmt.Sprintf("mpi: rank %d: %s", c.rank, msg))
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
	if size < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative message size %d", c.rank, size))
	}
	cfg := &c.w.cfg
	c.hostCost(cfg.SendOverhead, size)

	env := c.w.acquireEnvelope()
	env.src, env.dst, env.ctx, env.tag, env.size, env.data = c.rank, dst, ctx, tag, size, data
	r := c.w.acquireRequest(c, ctx, c.rank, tag)
	r.isSend, r.dst, r.size = true, dst, size
	if c.w.lint != nil {
		c.w.lint.trackRequest(r)
	}
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
	if c.w.lint != nil {
		c.w.lint.trackRequest(r)
	}
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
	for !r.done {
		c.proc.BlockOn(r)
	}
	c.chargeCompletion(r)
	return r.st
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(rs ...*Request) {
	for _, r := range rs {
		if r.c != c {
			panic("mpi: Waitall on a request from another rank")
		}
	}
	for {
		allDone := true
		var pending *Request
		for _, r := range rs {
			if !r.done {
				allDone = false
				pending = r
				break
			}
		}
		if allDone {
			break
		}
		c.proc.BlockOn(pending)
	}
	for _, r := range rs {
		c.chargeCompletion(r)
	}
}

// chargeCompletion pays the receive-side CPU cost exactly once.
//
//detlint:hotpath
func (c *Comm) chargeCompletion(r *Request) {
	if r.cpuCharged {
		return
	}
	r.cpuCharged = true
	if c.w.lint != nil {
		c.w.lint.requestWaited(r)
	}
	if !r.isSend {
		c.hostCost(c.w.cfg.RecvOverhead, r.st.Size)
		if r.ctx == ctxUser {
			c.w.rec(c.rank, trace.RecvEnd, r.st.Source, r.st.Tag, r.st.Size, "")
		}
		return
	}
	if r.ctx == ctxUser {
		c.w.rec(c.rank, trace.SendEnd, r.dst, r.tag, r.size, "")
	}
}

// BlockReason describes the pending operation for deadlock reports. Wait
// and Waitall park on the request itself (sim.BlockReasoner) so the hot
// path stores one interface word instead of formatting this string on
// every block iteration.
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
