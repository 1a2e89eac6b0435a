package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/service"
)

func TestMixIsDeterministicPerSeed(t *testing.T) {
	a, b, other := newMix(7), newMix(7), newMix(8)
	differs := false
	for i := 0; i < 500; i++ {
		x, y := a.next(), b.next()
		if x.class != y.class || x.of != y.of || !bytes.Equal(x.body, y.body) {
			t.Fatalf("request %d differs between two generators with the same seed", i)
		}
		differs = differs || !bytes.Equal(other.next().body, x.body)
	}
	if !differs {
		t.Error("another seed produced the same requests")
	}
}

// TestMixBlocksHaveFixedClassCounts checks that every block of the mix
// holds exactly classCounts of each class, and that the seed changes
// the order within blocks.
func TestMixBlocksHaveFixedClassCounts(t *testing.T) {
	m := newMix(3)
	var orders [][mixBlock]int
	for b := 0; b < 400; b++ {
		var n [numClasses]int
		var order [mixBlock]int
		for i := range order {
			order[i] = m.next().class
			n[order[i]]++
		}
		if n != classCounts {
			t.Fatalf("block %d holds %v requests per class, want %v", b, n, classCounts)
		}
		orders = append(orders, order)
	}
	// The first block may be reordered to start with a non-replay, so
	// compare the ones after it.
	same := true
	for _, o := range orders[2:] {
		same = same && o == orders[1]
	}
	if same {
		t.Error("every block has the same order")
	}
}

func TestMixReplaysOnlyRecentRequests(t *testing.T) {
	m := newMix(3)
	sent := map[int][]byte{}
	var distinct []int
	for seq := 0; seq < 4000; seq++ {
		r := m.next()
		if r.class != classReplay {
			if r.of != -1 {
				t.Fatalf("request %d is not a replay but names %d", seq, r.of)
			}
			sent[seq] = r.body
			distinct = append(distinct, seq)
			var req service.Request
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			if (r.class == classReject) != (req.Model == rejectModel) {
				t.Fatalf("request %d (%s) has the wrong model", seq, classNames[r.class])
			}
			continue
		}
		if seq == 0 {
			t.Fatal("the first request cannot be a replay")
		}
		recent := distinct
		if len(recent) > replayPool {
			recent = recent[len(recent)-replayPool:]
		}
		found := false
		for _, s := range recent {
			found = found || s == r.of
		}
		if !found || !bytes.Equal(sent[r.of], r.body) {
			t.Fatalf("replay %d repeats %d, which is not one of the last %d distinct requests %v",
				seq, r.of, replayPool, recent)
		}
	}
}

// TestMixNeverStartsWithAReplay tries many seeds: the first block's
// shuffle puts a replay first for some of them.
func TestMixNeverStartsWithAReplay(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		if r := newMix(seed).next(); r.class == classReplay {
			t.Fatalf("seed %d: the first request is a replay", seed)
		}
	}
}

func TestMixSeedsAreUnique(t *testing.T) {
	seen := map[uint64]bool{}
	benches := map[uint64]bool{}
	m := newMix(1)
	for i := 0; i < 4000; i++ {
		r := m.next()
		if r.class == classReplay {
			continue
		}
		var req service.Request
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		if seen[req.Seed] {
			t.Fatalf("request %d reuses seed %d: it would hit the response cache", i, req.Seed)
		}
		seen[req.Seed] = true
		if r.class == classRebench {
			if benches[req.Bench.Seed] {
				t.Fatalf("rebench %d reuses bench seed %d: it would hit the database cache", i, req.Bench.Seed)
			}
			benches[req.Bench.Seed] = true
		}
	}
}

func TestCheckReplyByClass(t *testing.T) {
	replies := map[int][]byte{4: []byte("first")}
	statuses := map[int]int{4: http.StatusOK}
	replay := mixRequest{class: classReplay, of: 4}
	for _, tc := range []struct {
		name   string
		req    mixRequest
		status int
		cache  string
		reply  string
		ok     bool
	}{
		{"replay hit", replay, 200, "hit", "first", true},
		{"replay computed again", replay, 200, "miss", "first", false},
		{"replay with other bytes", replay, 200, "hit", "second", false},
		{"reseed", mixRequest{class: classReseed}, 200, "miss", "x", true},
		{"reseed served from cache", mixRequest{class: classReseed}, 200, "hit", "x", false},
		{"rebench failed", mixRequest{class: classRebench}, 422, "miss", "x", false},
		{"reject", mixRequest{class: classReject}, 400, "miss", "x", true},
		{"reject accepted", mixRequest{class: classReject}, 200, "miss", "x", false},
	} {
		problem := checkReply(tc.req, tc.status, tc.cache, []byte(tc.reply), nil, replies, statuses)
		if (problem == "") != tc.ok {
			t.Errorf("%s: problem %q, want ok=%v", tc.name, problem, tc.ok)
		}
	}
}
