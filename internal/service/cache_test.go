package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived past capacity")
	}
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Fatalf("b = %d, %v", v, ok)
	}
	// b is now most recently used; inserting d evicts c.
	c.put("d", 4)
	if _, ok := c.get("c"); ok {
		t.Fatal("c survived although b was fresher")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("recently-used b evicted")
	}
}

func TestLRURefreshUpdatesValue(t *testing.T) {
	c := newLRU[string](4)
	c.put("k", "old")
	c.put("k", "new")
	// peek finds the same value but counts neither a hit nor a miss.
	if v, ok := c.peek("k"); !ok || v != "new" {
		t.Fatalf("peek k = %q, %v", v, ok)
	}
	if _, ok := c.peek("absent"); ok {
		t.Fatal("peek found an absent key")
	}
	if v, _ := c.get("k"); v != "new" {
		t.Fatalf("v = %q", v)
	}
	if entries, hits, misses := c.stats(); entries != 1 || hits != 1 || misses != 0 {
		t.Fatalf("stats: %d entries, %d hits, %d misses", entries, hits, misses)
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := newLRU[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				c.put(key, i)
				c.get(key)
			}
		}()
	}
	wg.Wait()
	if entries, _, _ := c.stats(); entries > 8 {
		t.Fatalf("capacity exceeded: %d entries", entries)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup[int]()
	var calls atomic.Int32
	gate := make(chan struct{})

	const n = 8
	results := make([]int, n)
	shared := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, sh, ok := g.do("key", nil, func() (int, error) {
				calls.Add(1)
				<-gate // hold every caller in flight
				return 42, nil
			})
			if err != nil || !ok {
				t.Errorf("do: %v %v", err, ok)
			}
			results[i], shared[i] = v, sh
		}()
	}
	// Release the leader only once every other caller has joined its
	// call: a caller arriving after the leader returned would lead a
	// second call.
	for g.followersOf("key") < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if results[i] != 42 {
			t.Fatalf("caller %d got %d", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

// followersOf reports how many callers have joined key's in-flight
// call, or 0 when none is in flight.
func (g *flightGroup[V]) followersOf(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.inFlight[key]; ok {
		return call.followers
	}
	return 0
}

func TestFlightGroupFollowerCancel(t *testing.T) {
	g := newFlightGroup[int]()
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	go g.do("key", nil, func() (int, error) {
		close(leaderIn)
		<-gate
		return 1, nil
	})
	<-leaderIn

	cancel := make(chan struct{})
	close(cancel) // follower's context is already done
	_, _, sharedFlag, ok := g.do("key", cancel, func() (int, error) {
		t.Fatal("follower must not run fn")
		return 0, nil
	})
	if ok || !sharedFlag {
		t.Fatalf("cancelled follower: shared=%v ok=%v, want shared=true ok=false", sharedFlag, ok)
	}
	close(gate)
}

func TestFlightGroupSequentialRunsBoth(t *testing.T) {
	g := newFlightGroup[int]()
	for want := 1; want <= 2; want++ {
		v, err, sh, ok := g.do("key", nil, func() (int, error) { return want, nil })
		if err != nil || !ok || sh || v != want {
			t.Fatalf("call %d: v=%d err=%v shared=%v ok=%v", want, v, err, sh, ok)
		}
	}
}
