package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pevpm"
)

// counterValue reads one service counter out of a fresh snapshot.
func (m *serviceMetrics) counterValue(name string, labels ...metrics.Label) uint64 {
	v, _ := m.snapshotAll().Counter("service", name, labels...)
	return v
}

// ringModel passes lint at any world size: a nonblocking ring with a
// little serial compute per iteration.
const ringModel = `PEVPM Param bytes = 1024
PEVPM Loop iterations = 2
PEVPM {
PEVPM   Serial time = 0.001
PEVPM   Message type = MPI_Isend
PEVPM   &       size = bytes
PEVPM   &       from = procnum
PEVPM   &       to = (procnum + 1) % numprocs
PEVPM   Message type = MPI_Recv
PEVPM   &       size = bytes
PEVPM   &       from = (procnum + numprocs - 1) % numprocs
PEVPM   &       to = procnum
PEVPM }
`

// oobModel fails lint: "to = numprocs" is one past the last rank.
const oobModel = `PEVPM Message type = MPI_Isend
PEVPM &       size = 1024
PEVPM &       from = procnum
PEVPM &       to = numprocs
`

// testBench keeps database fitting fast: few repetitions, few sizes,
// the minimum sync probes.
func testBench() BenchSpec {
	return BenchSpec{
		Sizes:       []int{0, 1024},
		Placements:  []string{"2x1", "4x1"},
		Repetitions: 6,
		WarmUp:      2,
		SyncProbes:  4,
		Seed:        1,
	}
}

func testRequest() Request {
	return Request{
		Model: ringModel,
		Procs: 4,
		Seed:  7,
		Runs:  5,
		Bench: testBench(),
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestService(t *testing.T, workers int) *Service {
	t.Helper()
	s := New(Config{Workers: workers})
	t.Cleanup(s.Close)
	return s
}

func TestPredictSuccess(t *testing.T) {
	s := newTestService(t, 2)
	res := s.HandleRequest(context.Background(), mustJSON(t, testRequest()))
	if res.Status != 200 {
		t.Fatalf("status = %d, body: %s", res.Status, res.Body)
	}
	if res.Cache != "miss" {
		t.Fatalf("cache = %q, want miss", res.Cache)
	}
	var resp Response
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if resp.Schema != Schema || resp.RequestHash != res.Hash {
		t.Fatalf("schema/hash mismatch: %+v vs hash %s", resp, res.Hash)
	}
	p := resp.Prediction
	if p == nil || p.Runs != 5 {
		t.Fatalf("prediction missing or wrong runs: %+v", p)
	}
	if !(p.Mean > 0) || !(p.Min > 0) || p.Min > p.Max {
		t.Fatalf("implausible makespan summary: %+v", p)
	}
	if p.MeanCI.Lo > p.Mean || p.MeanCI.Hi < p.Mean {
		t.Fatalf("mean outside its own CI: %+v", p.MeanCI)
	}
	if p.QuantileCI.N != 5 || p.Quantile != 0.5 {
		t.Fatalf("quantile interval wrong: %+v", p.QuantileCI)
	}
	// The ring communicates, so the detail evaluation must have counted
	// messages and the serial directives compute time.
	if p.Messages == 0 || p.Breakdown.Compute <= 0 {
		t.Fatalf("breakdown/messages empty: %+v", p)
	}
	if len(resp.Metrics) == 0 {
		t.Fatal("response carries no metrics snapshot")
	}
	if resp.DB.Key == "" || resp.DB.BenchVersion != BenchVersion {
		t.Fatalf("db info incomplete: %+v", resp.DB)
	}
}

func TestResponseBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	req := mustJSON(t, testRequest())
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		s := newTestService(t, workers)
		res := s.HandleRequest(context.Background(), req)
		if res.Status != 200 {
			t.Fatalf("workers=%d: status %d: %s", workers, res.Status, res.Body)
		}
		bodies = append(bodies, res.Body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("response bytes differ between 1-worker and 8-worker engine pools")
	}
}

func TestResponseCacheHitServesIdenticalBytes(t *testing.T) {
	s := newTestService(t, 2)
	req := mustJSON(t, testRequest())
	first := s.HandleRequest(context.Background(), req)
	if first.Status != 200 || first.Cache != "miss" {
		t.Fatalf("first: %d %q", first.Status, first.Cache)
	}
	second := s.HandleRequest(context.Background(), req)
	if second.Cache != "hit" {
		t.Fatalf("second request not a cache hit: %q", second.Cache)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Fatal("cached body differs from computed body")
	}
	if got := s.met.counterValue("predictions_total"); got != 1 {
		t.Fatalf("predictions_total = %d, want 1 (cached request must not re-predict)", got)
	}
}

func TestCanonicalizationSharesCacheEntry(t *testing.T) {
	s := newTestService(t, 2)
	// Spell the same request three ways: defaults omitted, defaults
	// explicit, and keys reordered with noise whitespace.
	implicit := mustJSON(t, testRequest())
	explicit := []byte(`{
		"runs": 5, "mode": "dist", "per_node": 1, "quantile": 0.5,
		"cluster": {"name": "perseus"},
		"procs": 4, "seed": 7,
		"model": ` + string(mustJSON(t, ringModel)) + `,
		"bench": {"op": "MPI_Send", "sizes": [0, 1024], "placements": ["2x1", "4x1"],
			"repetitions": 6, "warmup": 2, "sync_probes": 4, "seed": 1}
	}`)
	a := s.HandleRequest(context.Background(), implicit)
	b := s.HandleRequest(context.Background(), explicit)
	if a.Status != 200 {
		t.Fatalf("implicit: %d %s", a.Status, a.Body)
	}
	if a.Hash != b.Hash {
		t.Fatalf("hashes differ: %s vs %s — canonicalisation broken", a.Hash, b.Hash)
	}
	if b.Cache != "hit" {
		t.Fatalf("explicit spelling missed the cache: %q", b.Cache)
	}
	if !bytes.Equal(a.Body, b.Body) {
		t.Fatal("bodies differ for canonically-equal requests")
	}
}

func TestLintErrorIsDeterministic400(t *testing.T) {
	s := newTestService(t, 1)
	req := testRequest()
	req.Model = oobModel
	raw := mustJSON(t, req)
	first := s.HandleRequest(context.Background(), raw)
	if first.Status != 400 {
		t.Fatalf("status = %d, want 400; body: %s", first.Status, first.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(first.Body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Findings) == 0 {
		t.Fatal("400 body carries no lint findings")
	}
	found := false
	for _, f := range er.Findings {
		if f.Rule == "rank-bounds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a rank-bounds finding, got %+v", er.Findings)
	}
	// Deterministic failures cache like successes.
	second := s.HandleRequest(context.Background(), raw)
	if second.Cache != "hit" || !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("lint failure did not replay from cache: %q", second.Cache)
	}
}

// TestInfiniteSerialTimeIsLint400: a Serial time that overflows to +Inf
// is a lint error, not a prediction whose +Inf makespan cannot be
// encoded.
func TestInfiniteSerialTimeIsLint400(t *testing.T) {
	s := newTestService(t, 1)
	req := testRequest()
	req.Model = "PEVPM Serial time = 1e308*10\n"
	res := s.HandleRequest(context.Background(), mustJSON(t, req))
	if res.Status != 400 {
		t.Fatalf("status = %d, want 400; body: %s", res.Status, res.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.Body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Findings) != 1 || er.Findings[0].Rule != "bad-time" {
		t.Fatalf("want one bad-time finding, got %s", res.Body)
	}
}

// TestBadCollectiveRootIsLint400: a Collective root that fails to
// evaluate on some rank is a lint error, refused before any performance
// database is built, not a 422 from the evaluation that follows a build.
func TestBadCollectiveRootIsLint400(t *testing.T) {
	s := newTestService(t, 1)
	req := testRequest()
	req.Model = "PEVPM Collective type = MPI_Barrier\nPEVPM & size = 1\nPEVPM & root = 1/(procnum - 1)\n"
	res := s.HandleRequest(context.Background(), mustJSON(t, req))
	if res.Status != 400 {
		t.Fatalf("status = %d, want 400; body: %s", res.Status, res.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.Body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Findings) != 1 || er.Findings[0].Rule != "eval-error" {
		t.Fatalf("want one eval-error finding, got %s", res.Body)
	}
	if got := s.met.counterValue("db_builds_total"); got != 0 {
		t.Errorf("db_builds_total = %d, want 0", got)
	}
}

// TestMixedSeverityLoopIsLint400: a Loop count that only warns on the
// first ranks (1.5 - procnum truncates on ranks 0 and 1) but is negative
// on the rest is a lint error, refused before any performance database
// is built, not a 422 from the evaluation that follows a build.
func TestMixedSeverityLoopIsLint400(t *testing.T) {
	s := newTestService(t, 1)
	req := testRequest()
	req.Procs = 4
	req.Model = "PEVPM Loop iterations = 1.5 - procnum\nPEVPM {\nPEVPM   Serial time = 1\nPEVPM }\n"
	res := s.HandleRequest(context.Background(), mustJSON(t, req))
	if res.Status != 400 {
		t.Fatalf("status = %d, want 400; body: %s", res.Status, res.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.Body, &er); err != nil {
		t.Fatal(err)
	}
	lintErrors := 0
	for _, f := range er.Findings {
		if f.Rule == "bad-loop-count" && f.Severity == "error" {
			lintErrors++
		}
	}
	if lintErrors != 1 {
		t.Fatalf("want one bad-loop-count error, got %s", res.Body)
	}
	if got := s.met.counterValue("db_builds_total"); got != 0 {
		t.Errorf("db_builds_total = %d, want 0", got)
	}
}

// TestOversizedTopologyIs400: a topology spec whose path table or node
// state would exhaust memory is a request error. The first two specs
// used to crash the server from the request's goroutine.
func TestOversizedTopologyIs400(t *testing.T) {
	s := newTestService(t, 1)
	for _, spec := range []string{
		"tree:4x65536x65536x65536x65536",
		"tree:1x4294967296x4294967296",
		fmt.Sprintf("fattree:%dx1x1", cluster.MaxTopoLeaves+1),
	} {
		req := testRequest()
		req.Cluster.Topology = spec
		res := s.HandleRequest(context.Background(), mustJSON(t, req))
		if res.Status != 400 || !bytes.Contains(res.Body, []byte("cluster.topology")) {
			t.Errorf("%s: status = %d, want 400 naming cluster.topology; body: %s", spec, res.Status, res.Body)
		}
	}
}

func TestParseErrorCarriesFinding(t *testing.T) {
	s := newTestService(t, 1)
	req := testRequest()
	req.Model = "PEVPM Message type = MPI_Isend\nPEVPM & size = \n"
	res := s.HandleRequest(context.Background(), mustJSON(t, req))
	if res.Status != 400 {
		t.Fatalf("status = %d", res.Status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.Body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Findings) != 1 || er.Findings[0].Rule != "parse-error" {
		t.Fatalf("want one parse-error finding, got %+v", er.Findings)
	}
}

func TestResolveRejectsBadRequests(t *testing.T) {
	s := newTestService(t, 1)
	base := testRequest()
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"no model", func(r *Request) { r.Model = "" }},
		{"zero procs", func(r *Request) { r.Procs = 0 }},
		{"huge procs", func(r *Request) { r.Procs = 1 << 20 }},
		{"bad mode", func(r *Request) { r.Mode = "median" }},
		{"bad quantile", func(r *Request) { r.Quantile = 1.5 }},
		{"bad cluster", func(r *Request) { r.Cluster.Name = "bluegene" }},
		{"bad op", func(r *Request) { r.Bench.Op = "MPI_Sendmsg" }},
		{"few probes", func(r *Request) { r.Bench.SyncProbes = 2 }},
		{"negative size", func(r *Request) { r.Bench.Sizes = []int{-1} }},
		{"too many runs", func(r *Request) { r.Runs = 100000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			tc.mutate(&req)
			res := s.HandleRequest(context.Background(), mustJSON(t, req))
			if res.Status != 400 {
				t.Fatalf("status = %d, want 400; body: %s", res.Status, res.Body)
			}
		})
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	s := newTestService(t, 1)
	res := s.HandleRequest(context.Background(),
		[]byte(`{"model": "x", "procs": 4, "seed": 1, "turbo": true}`))
	if res.Status != 400 {
		t.Fatalf("status = %d, want 400 for unknown field", res.Status)
	}
}

func TestDBCacheSharedAcrossSeeds(t *testing.T) {
	s := newTestService(t, 2)
	for seed := uint64(1); seed <= 3; seed++ {
		req := testRequest()
		req.Seed = seed
		res := s.HandleRequest(context.Background(), mustJSON(t, req))
		if res.Status != 200 {
			t.Fatalf("seed %d: %d %s", seed, res.Status, res.Body)
		}
	}
	if got := s.met.counterValue("db_builds_total"); got != 1 {
		t.Fatalf("db_builds_total = %d, want 1 (same bench spec must share one database)", got)
	}
	if got := s.met.counterValue("predictions_total"); got != 3 {
		t.Fatalf("predictions_total = %d, want 3", got)
	}
}

// TestDBCacheCountsOneLookupPerRequest checks the database cache's
// hit/miss counters: a cold request counts one miss and one build, and a
// reseed of it (a new response, the same database) one hit.
func TestDBCacheCountsOneLookupPerRequest(t *testing.T) {
	s := newTestService(t, 2)
	check := func(when string, hits, misses, builds uint64) {
		t.Helper()
		st := s.Stats()
		if db := st.Caches["db"]; db.Hits != hits || db.Misses != misses || st.DBBuilds != builds {
			t.Fatalf("%s: db cache %d hits, %d misses, %d builds; want %d, %d, %d",
				when, db.Hits, db.Misses, st.DBBuilds, hits, misses, builds)
		}
	}
	req := testRequest()
	if res := s.HandleRequest(context.Background(), mustJSON(t, req)); res.Status != 200 {
		t.Fatalf("cold: %d %s", res.Status, res.Body)
	}
	check("cold request", 0, 1, 1)
	req.Seed++
	if res := s.HandleRequest(context.Background(), mustJSON(t, req)); res.Status != 200 {
		t.Fatalf("reseed: %d %s", res.Status, res.Body)
	}
	check("reseed", 1, 1, 1)
}

func TestTraceRequested(t *testing.T) {
	s := newTestService(t, 2)
	req := testRequest()
	req.Trace = true
	res := s.HandleRequest(context.Background(), mustJSON(t, req))
	if res.Status != 200 {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	var resp Response
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("trace requested but absent")
	}
	var events []json.RawMessage
	if err := json.Unmarshal(resp.Trace, &events); err != nil {
		t.Fatalf("trace is not Chrome-trace JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestTimeoutReturns504(t *testing.T) {
	s := newTestService(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res := s.HandleRequest(ctx, mustJSON(t, testRequest()))
	if res.Status != 504 {
		t.Fatalf("status = %d, want 504", res.Status)
	}
}

// TestCloseWaitsForTimedOutLeader checks that a leader whose request
// already got its 504 has cached the response by the time Close
// returns, that Close may be called again, and that the service still
// answers afterwards, from that cache.
func TestCloseWaitsForTimedOutLeader(t *testing.T) {
	s := New(Config{Workers: 1})
	raw := mustJSON(t, testRequest())
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res := s.HandleRequest(ctx, raw)
	if res.Status != 504 {
		t.Fatalf("status = %d, want 504", res.Status)
	}
	s.Close()
	if _, ok := s.respCache.peek(res.Hash); !ok {
		t.Fatal("Close returned before the timed-out leader cached its response")
	}
	s.Close()
	if again := s.HandleRequest(context.Background(), raw); again.Status != 200 || again.Cache != "hit" {
		t.Fatalf("after Close: status %d, cache %q; want 200 from the cache", again.Status, again.Cache)
	}
}

// countEvaluations makes every replication of s hold its evaluation
// for hold, to widen overlaps, and returns a function reporting the
// most replications that were evaluating at once.
func countEvaluations(s *Service, hold time.Duration) (peak func() int64) {
	var active, most atomic.Int64
	s.evaluate = func(prog *pevpm.Program, opts pevpm.Options) (*pevpm.Report, error) {
		n := active.Add(1)
		defer active.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(hold)
		return pevpm.Evaluate(prog, opts)
	}
	return most.Load
}

// TestReplicationSlotsBoundConcurrentRequests sends distinct requests
// at once to a two-worker service. Each request's sweep runs two cells
// at a time, so only the shared slots keep the service at two
// replications evaluating, not eight.
func TestReplicationSlotsBoundConcurrentRequests(t *testing.T) {
	s := newTestService(t, 2)
	peak := countEvaluations(s, 2*time.Millisecond)
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 4; seed++ {
		req := testRequest()
		req.Seed, req.Runs = seed, 8
		raw := mustJSON(t, req)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := s.HandleRequest(context.Background(), raw); res.Status != 200 {
				t.Errorf("seed %d: status %d: %s", seed, res.Status, res.Body)
			}
		}()
	}
	wg.Wait()
	if p := peak(); p < 1 || p > 2 {
		t.Fatalf("%d replications evaluated at once, want 1..2 with Workers: 2", p)
	}
}

func TestModeVariantsDiffer(t *testing.T) {
	s := newTestService(t, 2)
	means := map[string]float64{}
	for _, mode := range []string{"dist", "avg-nxp", "min-2x1"} {
		req := testRequest()
		req.Mode = mode
		res := s.HandleRequest(context.Background(), mustJSON(t, req))
		if res.Status != 200 {
			t.Fatalf("mode %s: %d %s", mode, res.Status, res.Body)
		}
		var resp Response
		if err := json.Unmarshal(res.Body, &resp); err != nil {
			t.Fatal(err)
		}
		means[mode] = resp.Prediction.Mean
	}
	// min-2x1 samples distribution minima, so it must undercut dist.
	if !(means["min-2x1"] < means["dist"]) {
		t.Fatalf("min-2x1 (%v) not below dist (%v)", means["min-2x1"], means["dist"])
	}
}

func TestStatsView(t *testing.T) {
	s := newTestService(t, 2)
	req := mustJSON(t, testRequest())
	s.HandleRequest(context.Background(), req)
	s.HandleRequest(context.Background(), req)
	st := s.Stats()
	if st.Predictions != 1 {
		t.Fatalf("predictions = %d, want 1", st.Predictions)
	}
	if st.Caches["response"].Hits != 1 || st.Caches["response"].Misses != 1 {
		t.Fatalf("response cache stats: %+v", st.Caches["response"])
	}
	if st.Replications != 5 {
		t.Fatalf("replications = %d, want 5", st.Replications)
	}
	for _, stage := range []string{"lint", "db", "predict", "encode"} {
		if st.Stages[stage].Count == 0 {
			t.Fatalf("stage %q has no latency observations: %+v", stage, st.Stages)
		}
	}
}

func TestDefaultPlacementsCoverWorld(t *testing.T) {
	cfg := cluster.Perseus()
	pls := defaultPlacements(&cfg, 8, 1)
	want := "8x1"
	found := false
	for _, p := range pls {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("default placements %v missing the world's own %s", pls, want)
	}
}

func BenchmarkCachedRequest(b *testing.B) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := mustJSONB(b, testRequest())
	if res := s.HandleRequest(context.Background(), req); res.Status != 200 {
		b.Fatalf("prime failed: %d", res.Status)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.HandleRequest(context.Background(), req); res.Cache != "hit" {
			b.Fatalf("iteration %d missed the cache: %q", i, res.Cache)
		}
	}
}

func mustJSONB(b *testing.B, v any) []byte {
	b.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return data
}
