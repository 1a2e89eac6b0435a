package service

import (
	"container/list"
	"sync"
)

// lru is a size-bounded least-recently-used cache guarded by its own
// mutex. Both service caches (fitted performance databases and whole
// response bodies) are instances of it.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element

	hits, misses uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) { return c.lookup(key, true) }

// peek is get without counting a hit or miss, for re-checking a key
// whose lookup was already counted.
func (c *lru[V]) peek(key string) (V, bool) { return c.lookup(key, false) }

func (c *lru[V]) lookup(key string, count bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		if count {
			c.hits++
		}
		return el.Value.(*lruEntry[V]).val, true
	}
	if count {
		c.misses++
	}
	var zero V
	return zero, false
}

// put inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// stats reports entry count and lifetime hit/miss totals.
func (c *lru[V]) stats() (entries int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}

// flightGroup coalesces concurrent calls with the same key onto a
// single execution (the singleflight pattern, stdlib-only). The leader
// runs fn; followers block on the leader's done channel and share its
// result. Followers may also abandon the wait (request timeout) without
// cancelling the leader — the leader always completes and populates the
// caches.
type flightGroup[V any] struct {
	mu       sync.Mutex
	inFlight map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done      chan struct{}
	val       V
	err       error
	followers int // callers that joined this call; guarded by the group's mu
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{inFlight: make(map[string]*flightCall[V])}
}

// do returns fn's result for key, running fn at most once across
// concurrent callers. shared is true for followers that joined an
// in-flight leader. cancel, when non-nil, lets a follower stop waiting
// early; in that case do returns ok=false and the zero value.
func (g *flightGroup[V]) do(key string, cancel <-chan struct{}, fn func() (V, error)) (val V, err error, shared, ok bool) {
	g.mu.Lock()
	if call, exists := g.inFlight[key]; exists {
		call.followers++
		g.mu.Unlock()
		select {
		case <-call.done:
			return call.val, call.err, true, true
		case <-cancel:
			var zero V
			return zero, nil, true, false
		}
	}
	call := &flightCall[V]{done: make(chan struct{})}
	g.inFlight[key] = call
	g.mu.Unlock()

	call.val, call.err = fn()

	g.mu.Lock()
	delete(g.inFlight, key)
	g.mu.Unlock()
	close(call.done)
	return call.val, call.err, false, true
}
