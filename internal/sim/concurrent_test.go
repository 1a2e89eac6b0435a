package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentEngines runs many independent engines at once — the
// shape the sweep worker pool produces — and checks (a) under -race that
// no engine state is shared, (b) same-seed engines agree with a serial
// reference run, and (c) Shutdown reclaims every parked proc goroutine.
func TestConcurrentEngines(t *testing.T) {
	const engines = 12

	// Each engine simulates a tiny ping-pong workload plus procs that
	// are still parked when the horizon ends: a sleeper far beyond the
	// horizon and a proc blocked forever.
	runOne := func(seed uint64) Time {
		e := NewEngine(seed)
		defer e.Shutdown()
		var finish Time
		var pong *Proc
		pong = e.Spawn("pong", func(p *Proc) {
			p.BlockOn(why("await ping"))
			p.Sleep(Duration(e.RNG("pong").Intn(1000)+1) * Microsecond)
			finish = p.Now()
		})
		e.Spawn("ping", func(p *Proc) {
			p.Sleep(Duration(e.RNG("ping").Intn(1000)+1) * Microsecond)
			pong.Unblock()
		})
		e.Spawn("late-sleeper", func(p *Proc) { p.Sleep(1000 * Second) })
		e.Spawn("stuck", func(p *Proc) { p.BlockOn(why("never woken")) })
		if _, err := e.Run(TimeFromSeconds(1)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		return finish
	}

	before := runtime.NumGoroutine()

	// Serial reference results, one per seed.
	want := make([]Time, engines)
	for i := range want {
		want[i] = runOne(uint64(i + 1))
	}

	// The same seeds concurrently must reproduce them exactly.
	got := make([]Time, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runOne(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent run finished at %v, serial at %v", i+1, got[i], want[i])
		}
	}

	// Parked-proc goroutines (late-sleeper, stuck) must have been
	// reclaimed by Shutdown. Give the runtime a moment to retire them.
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentEnginesWithCellSeeds mirrors the sweep engine's seeding:
// every cell derives its stream from (root seed, cell key). Concurrent
// cells must land on the same trajectories as serial ones.
func TestConcurrentEnginesWithCellSeeds(t *testing.T) {
	const cells = 8
	trajectory := func(seed uint64) [4]float64 {
		e := NewEngine(seed)
		defer e.Shutdown()
		var out [4]float64
		e.Spawn("walker", func(p *Proc) {
			for i := range out {
				p.Sleep(Millisecond)
				out[i] = e.RNG("walk").Float64()
			}
		})
		if _, err := e.Run(Forever); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		return out
	}

	want := make([][4]float64, cells)
	for i := range want {
		want[i] = trajectory(SubSeed(42, fmt.Sprintf("cell%d", i)))
	}
	got := make([][4]float64, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = trajectory(SubSeed(42, fmt.Sprintf("cell%d", i)))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: concurrent trajectory %v, serial %v", i, got[i], want[i])
		}
	}
}
