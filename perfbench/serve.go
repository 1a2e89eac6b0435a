package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/service"
	"repro/internal/sim"
)

// serve drives pevpmd (service.New + Handler on a loopback port)
// closed-loop: one client, one keep-alive connection.
type serve struct {
	o       options
	svc     *service.Service
	srv     *http.Server
	served  chan error // the Serve goroutine's return value
	url     string
	rebench []service.BenchSpec // database specs built during the pass
	setupDB counts              // work of the priming database build
}

// Request shape. Every prediction models the same 16-process ring over
// a database with one measured placement, so each Monte-Carlo draw
// inverts exactly one quantile function.
const (
	serveProcs = 16
	serveRuns  = 48  // Monte-Carlo replications per prediction
	serveIters = 100 // ring iterations of the model
	replayPool = 8   // a replay repeats one of the client's last 8 distinct requests
)

// serveBench is the base database spec: every reseed shares it, so it
// is a database-cache hit; a rebench changes only its seed.
func serveBench(seed uint64) service.BenchSpec {
	return service.BenchSpec{
		Op: string(mpibench.OpSend), Sizes: []int{0, 1024, 4096}, Placements: []string{"16x1"},
		Repetitions: 200, WarmUp: 5, SyncProbes: 8, Seed: seed,
	}
}

// rejectModel fails mpilint: the message leaves the world (rank
// numprocs does not exist).
const rejectModel = `PEVPM Message type = MPI_Isend
PEVPM &       size = 1024
PEVPM &       from = procnum
PEVPM &       to = numprocs
`

// Request classes of the mix. Requests come in blocks of mixBlock, each
// holding exactly classCounts[k] requests of class k in a seeded order,
// so every block does the same work and neither percentile of a pass
// sits on a boundary between classes: sorted by cost, replay and reject
// come first (40 %), then reseed (50 %, holding the median), then
// rebench (10 %, holding p95).
const (
	classReplay = iota
	classReseed
	classRebench
	classReject
	numClasses
)

const mixBlock = 10

var (
	classNames  = [numClasses]string{"replay", "reseed", "rebench", "reject"}
	classCounts = [numClasses]int{3, 5, 1, 1}
)

// mixRequest is one generated request.
type mixRequest struct {
	class int
	body  []byte
	bench service.BenchSpec // database spec (reseed, rebench)
	of    int               // replay: the sequence number it repeats
}

// mix generates the client's request sequence from the workload seed.
// Replays only name requests sent earlier, so with a closed loop they
// are complete before the replay is sent.
type mix struct {
	rng      *sim.RNG
	seed     uint64
	seq      int
	block    []int // classes still to send from the current block
	distinct []int // sequence numbers of the non-replay requests
	bodies   map[int][]byte
}

func newMix(seed uint64) *mix {
	return &mix{rng: sim.NewCellRNG(seed, "serve:mix"), seed: seed, bodies: make(map[int][]byte)}
}

// nextBlock deals a block's classes in a seeded order. The first
// request of all cannot be a replay, so the first block starts with
// its first non-replay class.
func (m *mix) nextBlock() {
	m.block = m.block[:0]
	for k, n := range classCounts {
		for i := 0; i < n; i++ {
			m.block = append(m.block, k)
		}
	}
	for i := len(m.block) - 1; i > 0; i-- {
		j := m.rng.Intn(i + 1)
		m.block[i], m.block[j] = m.block[j], m.block[i]
	}
	if m.seq == 0 {
		for i, k := range m.block {
			if k != classReplay {
				m.block[0], m.block[i] = m.block[i], m.block[0]
				break
			}
		}
	}
}

func (m *mix) next() mixRequest {
	if len(m.block) == 0 {
		m.nextBlock()
	}
	class := m.block[0]
	m.block = m.block[1:]
	seq := m.seq
	m.seq++
	if class == classReplay {
		recent := m.distinct
		if len(recent) > replayPool {
			recent = recent[len(recent)-replayPool:]
		}
		of := recent[m.rng.Intn(len(recent))]
		return mixRequest{class: class, body: m.bodies[of], of: of}
	}
	reqSeed := sim.SubSeed(m.seed, fmt.Sprintf("serve:q%d", seq))
	req := service.Request{Model: ringModel(serveIters), Procs: serveProcs, Seed: reqSeed, Runs: serveRuns}
	req.Bench = serveBench(sim.SubSeed(m.seed, "serve:bench"))
	switch class {
	case classRebench:
		req.Bench.Seed = sim.SubSeed(reqSeed, "bench")
	case classReject:
		req.Model = rejectModel
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always marshals
	}
	m.distinct = append(m.distinct, seq)
	m.bodies[seq] = body
	if len(m.distinct) > replayPool {
		delete(m.bodies, m.distinct[len(m.distinct)-replayPool-1])
	}
	return mixRequest{class: class, body: body, bench: req.Bench, of: -1}
}

func newServe(o options) bench { return &serve{o: o} }

// setup starts the server and primes the base database with one
// prediction, the cost a long-running server pays once.
func (s *serve) setup(tr *tracer) error {
	s.svc = service.New(service.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/predict"
	s.srv = &http.Server{Handler: s.svc.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	base := serveBench(sim.SubSeed(s.o.seed, "serve:bench"))
	body, err := json.Marshal(service.Request{
		Model: ringModel(serveIters), Procs: serveProcs, Seed: 0, Runs: serveRuns, Bench: base,
	})
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	id := tr.begin("http.request", 0, -1)
	status, _, reply, err := post(client, s.url, body)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("priming request: status %d: %s", status, reply)
	}
	if tr != nil {
		s.setupDB, err = recountDB(base)
	}
	return err
}

func (s *serve) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("serve: server: %v\n", err)
	}
	s.svc.Close()
	s.srv = nil
}

// newClient is one client's HTTP stack: a single keep-alive connection.
func newClient() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// post sends one request and reads the whole reply.
func post(t *http.Transport, url string, body []byte) (status int, cache string, reply []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.RoundTrip(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), reply, err
}

// measure runs the closed loop: send, wait for the whole reply, check
// it, send the next. A round is one block of the mix.
func (s *serve) measure(lim limit, tr *tracer) (*pass, error) {
	before := s.svc.Stats()
	p := newPass(lim)
	p.setupCounts = s.setupDB
	t := newClient()
	defer t.CloseIdleConnections()
	m := newMix(s.o.seed)
	d := newDigest()
	replies := make(map[int][]byte) // first replies of the requests a replay may repeat
	statuses := make(map[int]int)
	var byClass [numClasses][]float64
	var sent [numClasses]int64
	start, cpu0 := time.Now(), cpuNow()
	q := 0
	for r := 0; lim.more(r); r++ {
		for i := 0; i < mixBlock; i, q = i+1, q+1 {
			req := m.next()
			id := tr.begin("http.request", 0, int64(q))
			t0 := p.startCall()
			status, cache, reply, err := post(t, s.url, req.body)
			dur := p.stopCall(t0, r)
			tr.end(id, map[string]float64{"class": float64(req.class), "status": float64(status)})
			sent[req.class]++
			byClass[req.class] = append(byClass[req.class], dur.Seconds())
			p.attempted++
			if r == 0 || lim.fixed() {
				d.num(uint64(status))
				d.str(string(reply))
			}
			if problem := checkReply(req, status, cache, reply, err, replies, statuses); problem != "" {
				p.fail(1, "request %d (%s): %s", q, classNames[req.class], problem)
			}
			if req.class != classReplay {
				replies[q], statuses[q] = reply, status
				for k := range replies {
					if _, ok := m.bodies[k]; !ok {
						delete(replies, k)
						delete(statuses, k)
					}
				}
			}
			if req.class == classRebench {
				s.rebench = append(s.rebench, req.bench)
			}
			if tr != nil && status == http.StatusOK && cache == "miss" {
				var body struct {
					Metrics metrics.Snapshot `json:"metrics"`
				}
				if json.Unmarshal(reply, &body) == nil {
					// One measured placement and the model's size measured
					// exactly: every draw inverts one quantile function.
					p.counts.addSnapshot(body.Metrics)
					p.counts.Quantiles += drawCount(body.Metrics)
				}
			}
		}
		p.roundOps = append(p.roundOps, mixBlock)
	}
	p.wall, p.cpu = time.Since(start), cpuNow()-cpu0
	after := s.svc.Stats()
	p.digest, p.digestOf = d.sum(), digestScope(lim, len(p.roundOps), "blocks of replies")
	p.counts.Requests = uint64(p.attempted)
	p.counts.Lints = uint64(sent[classReseed] + sent[classRebench] + sent[classReject])

	// The service's own counters must agree with the classes sent.
	resp := func(st service.Stats) service.CacheStats { return st.Caches["response"] }
	db := func(st service.Stats) service.CacheStats { return st.Caches["db"] }
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"response-cache hits", int64(resp(after).Hits - resp(before).Hits), sent[classReplay]},
		{"response-cache misses", int64(resp(after).Misses - resp(before).Misses), sent[classReseed] + sent[classRebench] + sent[classReject]},
		{"database-cache hits", int64(db(after).Hits - db(before).Hits), sent[classReseed]},
		{"database builds", int64(after.DBBuilds - before.DBBuilds), sent[classRebench]},
	} {
		if c.got != c.want {
			p.fail(absInt(c.got-c.want), "%s: service counted %d, the mix sent %d", c.what, c.got, c.want)
		}
	}

	for _, stage := range []string{"lint", "db", "predict", "encode"} {
		a, b := after.Stages[stage], before.Stages[stage]
		if n := float64(a.Count - b.Count); n > 0 {
			p.figures["service.stage_"+stage+"_us"] = (float64(a.Count)*a.MeanUS - float64(b.Count)*b.MeanUS) / n
			p.figures["service.stage_"+stage+"_total_s"] = (float64(a.Count)*a.MeanUS - float64(b.Count)*b.MeanUS) / 1e6
		}
	}
	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	p.figures["service.response_hit_ratio"] = ratio(resp(after).Hits-resp(before).Hits, resp(after).Misses-resp(before).Misses)
	// A database build looks the cache up twice (once more under the
	// single-flight guard), so the ratio is hits over hits plus builds.
	p.figures["service.db_hit_ratio"] = ratio(db(after).Hits-db(before).Hits, after.DBBuilds-before.DBBuilds)
	p.figures["service.db_builds"] = float64(after.DBBuilds - before.DBBuilds)
	for _, k := range []int{classReplay, classReseed, classRebench} {
		if len(byClass[k]) > 0 {
			p.figures["service."+classNames[k]+"_p50_ms"] = quantile(byClass[k], 0.5) * 1e3
		}
	}
	for k := range sent {
		p.figures["serve.requests_"+classNames[k]] = float64(sent[k])
	}
	return p, nil
}

// afterTrace counts the work of the database builds, which ran inside
// the service: each sweep is repeated outside it (same spec, same
// seeds, so the same simulation).
func (s *serve) afterTrace(tr *tracer, p *pass) error {
	for _, b := range s.rebench {
		id := tr.begin("mpibench.RunSweep", 0, -1)
		c, err := recountDB(b)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		p.counts.add(c)
	}
	return nil
}

// checkReply returns why a reply is wrong for its class ("" if right).
func checkReply(req mixRequest, status int, cache string, reply []byte, err error,
	replies map[int][]byte, statuses map[int]int) string {
	if err != nil {
		return err.Error()
	}
	wantStatus, wantCache := http.StatusOK, "miss"
	switch req.class {
	case classReplay:
		wantStatus, wantCache = statuses[req.of], "hit"
		if !bytes.Equal(reply, replies[req.of]) {
			return fmt.Sprintf("replay of request %d differs from its first reply", req.of)
		}
	case classReject:
		wantStatus = http.StatusBadRequest
	}
	if status != wantStatus || cache != wantCache {
		return fmt.Sprintf("status %d, X-Cache %q; want %d, %q: %.200s", status, cache, wantStatus, wantCache, reply)
	}
	return ""
}

// recountDB repeats the MPIBench sweep the service runs for a database
// spec and counts its work. The spec carries every field explicitly, so
// the sweep is the service's own, seed for seed.
func recountDB(b service.BenchSpec) (counts, error) {
	cfg := cluster.Perseus()
	var pls []cluster.Placement
	for _, s := range b.Placements {
		pl, err := cluster.ParsePlacement(&cfg, s)
		if err != nil {
			return counts{}, err
		}
		pls = append(pls, pl)
	}
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.Op(b.Op), Sizes: b.Sizes, Repetitions: b.Repetitions,
		WarmUp: b.WarmUp, SyncProbes: b.SyncProbes, Seed: b.Seed,
	}, pls)
	if err != nil {
		return counts{}, err
	}
	var c counts
	for _, res := range set.Results {
		c.addSnapshot(res.Metrics)
		n := recordedSamples(res)
		c.Samples += n
		c.Adds += n
	}
	return c, nil
}

func absInt(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
