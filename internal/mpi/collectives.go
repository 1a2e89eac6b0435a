package mpi

import (
	"fmt"

	"repro/internal/trace"
)

// Collective algorithms as MPICH 1.2.0 implemented them: dissemination
// barrier, binomial-tree broadcast/reduce/gather/scatter, reduce+bcast
// allreduce, ring allgather and pairwise-exchange alltoall. Each
// collective's algorithm loop only appends this rank's steps to its wait
// state, which runs them in event context (waitState), so the rank
// blocks once per collective. Collective traffic uses its own matching
// context so user wildcards cannot steal internal messages; correctness
// across back-to-back collectives follows from per-pair in-order
// delivery.

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

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ceil(log2 P) rounds of pairwise zero-byte exchanges with
// partners 2^round away).
func (c *Comm) Barrier() {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, 0, "Barrier")
	c.w.collMetric(tagBarrier, 0)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, 0, "Barrier")
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		c.wait.add((c.rank+k)%p, (c.rank-k+p)%p, 0)
	}
	c.collective(tagBarrier)
}

// Bcast distributes size bytes from root to every rank down a binomial
// tree. Every rank must call it with the same root and size.
func (c *Comm) Bcast(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Bcast")
	c.w.collMetric(tagBcast, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Bcast")
	c.checkPeer("Bcast root", root)
	c.checkSize(size)
	p := c.Size()
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			c.wait.add(-1, (rel-mask+root)%p, 0)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			c.wait.add((rel+mask+root)%p, -1, size)
		}
	}
	c.collective(tagBcast)
}

// Reduce combines size bytes from every rank onto root up a binomial
// tree (the combining computation itself is charged via the per-byte
// host cost of each receive).
func (c *Comm) Reduce(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Reduce")
	c.w.collMetric(tagReduce, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Reduce")
	c.checkPeer("Reduce root", root)
	c.checkSize(size)
	p := c.Size()
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			c.wait.add((rel&^mask+root)%p, -1, size)
			break
		}
		if srcRel := rel | mask; srcRel < p {
			c.wait.add(-1, (srcRel+root)%p, 0)
		}
	}
	c.collective(tagReduce)
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
	c.checkSize(size)
	p := c.Size()
	rel := (c.rank - root + p) % p
	held := size // bytes accumulated at this rank so far
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			c.wait.add((rel&^mask+root)%p, -1, held)
			break
		}
		if srcRel := rel | mask; srcRel < p {
			c.wait.add(-1, (srcRel+root)%p, 0)
			held += min(mask, p-srcRel) * size
		}
	}
	c.collective(tagGather)
}

// Scatter distributes size bytes to every rank from root, the mirror of
// Gather: each interior node receives its whole subtree's data and
// forwards the halves downward.
func (c *Comm) Scatter(root, size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Scatter")
	c.w.collMetric(tagScatter, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Scatter")
	c.checkPeer("Scatter root", root)
	c.checkSize(size)
	p := c.Size()
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			c.wait.add(-1, (rel-mask+root)%p, 0)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := rel + mask; child < p {
			c.wait.add((child+root)%p, -1, min(mask, p-child)*size)
		}
	}
	c.collective(tagScatter)
}

// Allgather makes size bytes from every rank available at every rank
// using the ring algorithm: P−1 steps, each passing one block to the
// right.
func (c *Comm) Allgather(size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Allgather")
	c.w.collMetric(tagAllgather, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Allgather")
	c.checkSize(size)
	p := c.Size()
	for k := 1; k < p; k++ {
		c.wait.add((c.rank+1)%p, (c.rank-1+p)%p, size)
	}
	c.collective(tagAllgather)
}

// Alltoall exchanges a distinct size-byte block between every pair of
// ranks using pairwise exchange: P−1 rounds of simultaneous send/recv
// with rotating partners.
func (c *Comm) Alltoall(size int) {
	c.w.rec(c.rank, trace.CollectiveStart, -1, 0, size, "Alltoall")
	c.w.collMetric(tagAlltoall, size)
	defer c.w.rec(c.rank, trace.CollectiveEnd, -1, 0, size, "Alltoall")
	c.checkSize(size)
	p := c.Size()
	for k := 1; k < p; k++ {
		c.wait.add((c.rank+k)%p, (c.rank-k+p)%p, size)
	}
	c.collective(tagAlltoall)
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
