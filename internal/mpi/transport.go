package mpi

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/trace"
)

// packetKind discriminates the traffic the MPICH/TCP transport produces.
type packetKind int

const (
	pktEager packetKind = iota // envelope + full payload (size < EagerLimit)
	pktRTS                     // rendezvous request-to-send (envelope only)
	pktCTS                     // rendezvous clear-to-send (receiver ready)
	pktData                    // rendezvous payload
)

func (k packetKind) String() string {
	switch k {
	case pktEager:
		return "eager"
	case pktRTS:
		return "rts"
	case pktCTS:
		return "cts"
	case pktData:
		return "data"
	}
	return fmt.Sprintf("packetKind(%d)", int(k))
}

// packet is one transport-level unit travelling between two ranks.
// Packets are pooled on the World and recycled after handlePacket, and
// they double as the network completion receiver (netsim.Receiver) so a
// send costs no per-packet closure.
type packet struct {
	w     *World
	key   connKey
	conn  *connection // the connection key names, so arrival needs no lookup
	bytes int         // wire payload size, for retry trace records
	kind  packetKind
	seq   uint64
	env   *envelope // the message this packet belongs to (CTS: the one being cleared)
}

// Deliver runs in event context when the network finishes the transfer.
func (p *packet) Deliver(st netsim.TransferStats) {
	w := p.w
	// Surface retransmission timeouts: they are invisible to the MPI
	// program (TCP retries under the covers) but they are exactly the
	// outliers the paper's distribution tails are made of.
	if st.Retries > 0 {
		w.timeouts.Messages++
		w.timeouts.Retries += st.Retries
		if d := st.Delivered.Sub(st.Sent); d > w.timeouts.Worst {
			w.timeouts.Worst = d
		}
		w.rec(p.key.src, trace.NetRetry, p.key.dst, st.Retries, p.bytes, "")
	}
	w.arrive(p)
}

// envelope is a message in flight: the matching key plus payload
// metadata. For rendezvous messages the envelope arrives first as an RTS
// and the payload follows after the CTS handshake. Envelopes are pooled
// on the World; the receive that consumes one (completeRecv) is its last
// reader and returns it.
type envelope struct {
	src, dst int
	ctx      int // matching context: user point-to-point or collective
	tag      int
	size     int
	data     any

	sender      *Request // rendezvous: the send request the CTS clears
	matched     *Request // receive request this envelope was matched to
	dataArrived bool     // payload fully at the destination host
}

// connection resequences packets for one directed rank pair. The
// simulated network can complete a retransmitted message after younger
// messages (exactly like packet loss under TCP); the connection holds the
// younger arrivals back so ranks observe in-order delivery with
// head-of-line blocking, as TCP guarantees.
type connection struct {
	nextSeq  uint64    // next sequence number to deliver (receive side)
	nextSend uint64    // next sequence number to stamp (send side)
	held     []*packet // out-of-order arrivals, kept sorted by seq
}

// sendPacket injects a packet of the given payload size from src to dst,
// stamping it with the connection's next sequence number.
//
//detlint:hotpath
func (w *World) sendPacket(src, dst int, kind packetKind, bytes int, env *envelope) {
	rs := w.ranks[src]
	if rs.conns == nil {
		rs.conns = make([]*connection, len(w.ranks))
	}
	conn := rs.conns[dst]
	if conn == nil {
		conn = &connection{}
		rs.conns[dst] = conn
	}
	pkt := w.acquirePacket()
	pkt.key, pkt.conn, pkt.bytes = connKey{src, dst}, conn, bytes
	pkt.kind, pkt.env = kind, env
	pkt.seq = conn.nextSend
	conn.nextSend++
	w.net.TransferTo(w.place.NodeOf(src), w.place.NodeOf(dst), bytes, pkt)
}

// acquirePacket takes a packet from the World's pool, or makes one.
func (w *World) acquirePacket() *packet {
	if n := len(w.pktFree) - 1; n >= 0 {
		pkt := w.pktFree[n]
		w.pktFree[n] = nil
		w.pktFree = w.pktFree[:n]
		return pkt
	}
	return &packet{w: w}
}

// releasePacket recycles a handled packet, dropping the envelope
// reference so the pool does not pin completed messages.
func (w *World) releasePacket(pkt *packet) {
	pkt.env = nil
	w.pktFree = append(w.pktFree, pkt)
}

// acquireRequest takes a request from the World's pool, or makes one,
// and sets its owner and matching key.
func (w *World) acquireRequest(c *Comm, ctx, src, tag int) *Request {
	var r *Request
	if n := len(w.reqFree) - 1; n >= 0 {
		r = w.reqFree[n]
		w.reqFree[n] = nil
		w.reqFree = w.reqFree[:n]
	} else {
		r = new(Request)
	}
	r.c, r.ctx, r.src, r.tag = c, ctx, src, tag
	return r
}

// releaseRequest recycles a completed request that no caller holds:
// one a blocking call made and waited for itself, or one its caller
// handed back with Free. A request Isend or Irecv returned is released
// only through Free, since its caller may Wait on it again.
func (w *World) releaseRequest(r *Request) {
	*r = Request{}
	w.reqFree = append(w.reqFree, r)
}

// acquireEnvelope takes a cleared envelope from the World's pool, or
// makes one.
func (w *World) acquireEnvelope() *envelope {
	if n := len(w.envFree) - 1; n >= 0 {
		env := w.envFree[n]
		w.envFree[n] = nil
		w.envFree = w.envFree[:n]
		return env
	}
	return new(envelope)
}

// releaseEnvelope recycles a consumed envelope, clearing it so the pool
// pins neither its payload nor its requests.
func (w *World) releaseEnvelope(env *envelope) {
	*env = envelope{}
	w.envFree = append(w.envFree, env)
}

// arrive delivers a packet to its connection, releasing any consecutive
// run of packets that is now in order.
//
//detlint:hotpath
func (w *World) arrive(pkt *packet) {
	conn := pkt.conn
	if pkt.seq != conn.nextSeq {
		// Insert in seq order (binary search: held is already sorted).
		lo, hi := 0, len(conn.held)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if conn.held[mid].seq < pkt.seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		conn.held = append(conn.held, nil)
		copy(conn.held[lo+1:], conn.held[lo:])
		conn.held[lo] = pkt
		return
	}
	w.handlePacket(pkt)
	w.releasePacket(pkt)
	conn.nextSeq++
	for len(conn.held) > 0 && conn.held[0].seq == conn.nextSeq {
		next := conn.held[0]
		n := len(conn.held) - 1
		copy(conn.held, conn.held[1:])
		conn.held[n] = nil
		conn.held = conn.held[:n]
		w.handlePacket(next)
		w.releasePacket(next)
		conn.nextSeq++
	}
}

// handlePacket runs in event context with packets arriving in order.
//
//detlint:hotpath
func (w *World) handlePacket(pkt *packet) {
	env := pkt.env
	switch pkt.kind {
	case pktEager:
		env.dataArrived = true
		w.ranks[pkt.key.dst].arriveEnvelope(w, env)
	case pktRTS:
		w.ranks[pkt.key.dst].arriveEnvelope(w, env)
	case pktCTS:
		// Back at the sender: stream the payload. The NIC does this
		// asynchronously; the sending rank's CPU is not involved again.
		w.sendPacket(env.src, env.dst, pktData, env.size, env)
	case pktData:
		env.dataArrived = true
		// Complete the sender side.
		w.completeRequest(env.sender, Status{Source: env.src, Tag: env.tag, Size: env.size})
		// Complete the receiver side (the envelope was matched before
		// the CTS went out).
		if env.matched == nil {
			panic("mpi: rendezvous data arrived for unmatched envelope")
		}
		w.completeRecv(env.matched, env)
	default:
		panic(fmt.Sprintf("mpi: unknown packet kind %v", pkt.kind))
	}
}
