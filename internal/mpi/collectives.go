package mpi

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// Collective algorithms as MPICH 1.2.0 implemented them: dissemination
// barrier, binomial-tree broadcast/reduce/gather/scatter, reduce+bcast
// allreduce, ring allgather and pairwise-exchange alltoall. Collective
// traffic uses its own matching context so user wildcards cannot steal
// internal messages; correctness across back-to-back collectives follows
// from per-pair in-order delivery.

// Internal tags, one per collective operation.
const (
	tagBarrier = iota + 1
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
)

// collSend/collRecv are blocking helpers in the collective context.
func (c *Comm) collSend(dst, tag, size int) { c.waitFree(c.isend(ctxCollective, dst, tag, size, nil)) }
func (c *Comm) collRecv(src, tag int)       { c.waitFree(c.irecv(ctxCollective, src, tag)) }

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ceil(log2 P) rounds of pairwise zero-byte exchanges).
func (c *Comm) Barrier() {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, 0, "Barrier")
	c.w.collMetric(tagBarrier, 0)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, 0, "Barrier")
	if p := c.Size(); p > 1 {
		c.exchange(tagBarrier, 0, bits.Len(uint(p-1)))
	}
}

// exchangePeers returns the rank this rank sends to and the rank it
// receives from in round (counted from 0) of the exchange-round
// collective tag.
//
//detlint:hotpath
func (c *Comm) exchangePeers(tag, round int) (dst, src int) {
	var step int
	switch tag {
	case tagBarrier: // dissemination: partners 2^round away
		step = 1 << round
	case tagAllgather: // ring: pass one block to the right
		step = 1
	default: // Alltoall: pairwise exchange with rotating partners
		step = round + 1
	}
	p := c.Size()
	return (c.rank + step) % p, (c.rank - step%p + p) % p
}

// Bcast distributes size bytes from root to every rank down a binomial
// tree. Every rank must call it with the same root and size.
func (c *Comm) Bcast(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Bcast")
	c.w.collMetric(tagBcast, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Bcast")
	c.checkPeer("Bcast root", root)
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			c.collRecv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			c.collSend(dst, tagBcast, size)
		}
		mask >>= 1
	}
}

// Reduce combines size bytes from every rank onto root up a binomial
// tree (the combining computation itself is charged via the per-byte
// host cost of each receive).
func (c *Comm) Reduce(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Reduce")
	c.w.collMetric(tagReduce, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Reduce")
	c.checkPeer("Reduce root", root)
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < p {
				c.collRecv((srcRel+root)%p, tagReduce)
			}
		} else {
			dst := ((rel &^ mask) + root) % p
			c.collSend(dst, tagReduce, size)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines size bytes across all ranks, leaving the result
// everywhere (MPICH 1.2 style: reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Allreduce")
	c.w.collMetric(0, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Allreduce")
	c.Reduce(0, size)
	c.Bcast(0, size)
}

// Gather collects size bytes from every rank onto root along a binomial
// tree; interior nodes forward their whole accumulated subtree.
func (c *Comm) Gather(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Gather")
	c.w.collMetric(tagGather, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Gather")
	c.checkPeer("Gather root", root)
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	held := size // bytes accumulated at this rank so far
	mask := 1
	for mask < p {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < p {
				blocks := mask
				if p-srcRel < blocks {
					blocks = p - srcRel
				}
				c.collRecv((srcRel+root)%p, tagGather)
				held += blocks * size
			}
		} else {
			dst := ((rel &^ mask) + root) % p
			c.collSend(dst, tagGather, held)
			break
		}
		mask <<= 1
	}
}

// Scatter distributes size bytes to every rank from root, the mirror of
// Gather: each interior node receives its whole subtree's data and
// forwards the halves downward.
func (c *Comm) Scatter(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Scatter")
	c.w.collMetric(tagScatter, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Scatter")
	c.checkPeer("Scatter root", root)
	p := c.Size()
	if p == 1 {
		return
	}
	rel := (c.rank - root + p) % p
	mask := 1
	if rel != 0 {
		for mask < p {
			if rel&mask != 0 {
				src := (rel - mask + root) % p
				c.collRecv(src, tagScatter)
				break
			}
			mask <<= 1
		}
	} else {
		for mask < p {
			mask <<= 1
		}
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			child := rel + mask
			blocks := mask
			if p-child < blocks {
				blocks = p - child
			}
			c.collSend((child+root)%p, tagScatter, blocks*size)
		}
		mask >>= 1
	}
}

// Allgather makes size bytes from every rank available at every rank
// using the ring algorithm: P−1 steps, each passing one block along.
func (c *Comm) Allgather(size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Allgather")
	c.w.collMetric(tagAllgather, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Allgather")
	if p := c.Size(); p > 1 {
		c.exchange(tagAllgather, size, p-1)
	}
}

// Alltoall exchanges a distinct size-byte block between every pair of
// ranks using pairwise exchange: P−1 rounds of simultaneous send/recv
// with rotating partners.
func (c *Comm) Alltoall(size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Alltoall")
	c.w.collMetric(tagAlltoall, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Alltoall")
	if p := c.Size(); p > 1 {
		c.exchange(tagAlltoall, size, p-1)
	}
}

// CollectiveName maps an internal collective tag to a printable name
// (used by traces and tests).
func CollectiveName(tag int) string {
	switch tag {
	case tagBarrier:
		return "Barrier"
	case tagBcast:
		return "Bcast"
	case tagReduce:
		return "Reduce"
	case tagGather:
		return "Gather"
	case tagScatter:
		return "Scatter"
	case tagAllgather:
		return "Allgather"
	case tagAlltoall:
		return "Alltoall"
	}
	return fmt.Sprintf("collective(%d)", tag)
}
