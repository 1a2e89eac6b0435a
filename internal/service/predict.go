package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments/sweep"
	"repro/internal/metrics"
	"repro/internal/mpibench"
	"repro/internal/mpilint"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Service is the prediction server: one set of replication slots, one
// database cache, one response cache, shared by every request.
type Service struct {
	cfg Config
	met *serviceMetrics

	// slots holds a token for each replication evaluating, so at most
	// cfg.Workers evaluate at once across all requests.
	slots chan struct{}
	// running counts the goroutines computing responses; they outlive
	// requests that time out, and Close waits for them.
	running sync.WaitGroup
	// evaluate runs one replication: pevpm.Evaluate outside tests.
	evaluate func(*pevpm.Program, pevpm.Options) (*pevpm.Report, error)

	dbCache  *lru[pevpm.PerfDB]
	dbFlight *flightGroup[pevpm.PerfDB]

	respCache  *lru[cachedResult]
	respFlight *flightGroup[cachedResult]
}

// cachedResult is one fully-rendered reply: everything that may be
// replayed byte-for-byte for an identical request.
type cachedResult struct {
	Status int
	Body   []byte
}

// Result is what the HTTP layer needs to write one reply.
type Result struct {
	Status int
	Body   []byte
	// Hash is the canonical request hash ("" when the request never
	// canonicalised, i.e. malformed JSON).
	Hash string
	// Cache reports how the body was obtained: "hit" (response cache),
	// "miss" (computed now), "coalesced" (shared an in-flight
	// computation), or "" for requests that never reached the cache.
	Cache string
}

// New builds a Service. Close it once its HTTP server has shut down.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:        cfg,
		met:        newServiceMetrics(),
		slots:      make(chan struct{}, cfg.Workers),
		evaluate:   pevpm.Evaluate,
		dbCache:    newLRU[pevpm.PerfDB](cfg.DBCacheSize),
		dbFlight:   newFlightGroup[pevpm.PerfDB](),
		respCache:  newLRU[cachedResult](cfg.RespCacheSize),
		respFlight: newFlightGroup[cachedResult](),
	}
}

// Close waits for the computations still running for requests that
// timed out, so each has cached its response when Close returns. Call
// it after the HTTP server has shut down.
func (s *Service) Close() { s.running.Wait() }

// Config returns the resolved service configuration.
func (s *Service) Config() Config { return s.cfg }

// errorBody renders an ErrorResponse with the canonical trailing
// newline every body carries.
func errorBody(hash, msg string, findings []mpilint.Finding) []byte {
	body, err := json.MarshalIndent(ErrorResponse{
		Schema:      Schema,
		RequestHash: hash,
		Error:       msg,
		Findings:    findings,
	}, "", "  ")
	if err != nil {
		return []byte(`{"schema":1,"error":"encoding failure"}` + "\n")
	}
	return append(body, '\n')
}

// parseRequest decodes a request body, rejecting unknown fields, and
// resolves it against the service limits.
func (s *Service) parseRequest(raw []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	return req, s.resolve(&req)
}

// HandleRequest runs one prediction request end to end: decode,
// resolve, response-cache lookup, single-flight computation, timeout.
// It never writes HTTP — the handler layer does — so tests and
// benchmarks drive it directly.
func (s *Service) HandleRequest(ctx context.Context, raw []byte) Result {
	req, err := s.parseRequest(raw)
	if err != nil {
		return Result{Status: 400, Body: errorBody("", "request: "+err.Error(), nil)}
	}
	hash := fnvHex(canonical(&req))

	if res, ok := s.respCache.get(hash); ok {
		s.met.cacheEvent("response", true)
		return Result{Status: res.Status, Body: res.Body, Hash: hash, Cache: "hit"}
	}
	s.met.cacheEvent("response", false)

	// The leader computes to completion even if this request's context
	// expires first: the work is deterministic and cacheable, so
	// abandoning it would only waste the computation for the next
	// identical request.
	type flightOut struct {
		res    cachedResult
		shared bool
		ok     bool
	}
	out := make(chan flightOut, 1)
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		res, _, shared, ok := s.respFlight.do(hash, ctx.Done(), func() (cachedResult, error) {
			// An identical leader may have cached its result and left
			// the flight group after this request's cache miss.
			if res, ok := s.respCache.peek(hash); ok {
				return res, nil
			}
			return s.compute(&req, hash), nil
		})
		out <- flightOut{res, shared, ok}
	}()

	select {
	case o := <-out:
		if !o.ok {
			// Follower abandoned by its context while the leader runs on.
			return Result{Status: 504, Hash: hash,
				Body: errorBody(hash, "timeout: request abandoned while an identical computation completes", nil)}
		}
		how := "miss"
		if o.shared {
			how = "coalesced"
			s.met.inc("coalesced_total")
		}
		return Result{Status: o.res.Status, Body: o.res.Body, Hash: hash, Cache: how}
	case <-ctx.Done():
		return Result{Status: 504, Hash: hash,
			Body: errorBody(hash, "timeout: computation exceeded the request deadline", nil)}
	}
}

// compute runs the staged pipeline (lint → db → predict → encode) for a
// resolved request and caches the outcome. Every outcome it can produce
// is deterministic — lint failures, model deadlocks and successful
// predictions alike — which is why error replies cache and byte-diff
// exactly like successes.
func (s *Service) compute(req *Request, hash string) cachedResult {
	finish := func(res cachedResult) cachedResult {
		s.respCache.put(hash, res)
		return res
	}

	// Stage 1: lint. The model must parse and pass static analysis with
	// zero errors before any simulation time is spent on it.
	lintStart := time.Now()
	prog, err := pevpm.Parse(req.Model)
	if err != nil {
		s.met.observeStage("lint", time.Since(lintStart).Microseconds())
		finding := mpilint.Finding{
			Severity: mpilint.SeverityError,
			Rule:     "parse-error",
			Rank:     -1,
			Message:  err.Error(),
		}
		return finish(cachedResult{400, errorBody(hash, "model failed to parse", []mpilint.Finding{finding})})
	}
	findings, err := mpilint.Analyze(prog, mpilint.Options{Procs: req.Procs})
	s.met.observeStage("lint", time.Since(lintStart).Microseconds())
	if err != nil {
		return finish(cachedResult{400, errorBody(hash, "model: "+err.Error(), nil)})
	}
	lint := lintInfo(findings)
	if lint.Errors > 0 {
		return finish(cachedResult{400, errorBody(hash,
			fmt.Sprintf("model failed lint with %d error(s); fix the findings and resubmit", lint.Errors),
			findings)})
	}

	// Stage 2: database. Fit (or fetch) the performance database for
	// the request's cluster and benchmark spec.
	dbStart := time.Now()
	cfg, err := buildCluster(req.Cluster)
	if err != nil {
		return finish(cachedResult{400, errorBody(hash, err.Error(), nil)})
	}
	clusterHash := mpibench.ClusterHash(&cfg)
	placementStrs := req.Bench.Placements
	if len(placementStrs) == 0 {
		placementStrs = defaultPlacements(&cfg, req.Procs, req.PerNode)
	}
	placements := make([]cluster.Placement, len(placementStrs))
	for i, str := range placementStrs {
		placements[i], err = cluster.ParsePlacement(&cfg, str)
		if err != nil {
			return finish(cachedResult{400, errorBody(hash, "bench.placements: "+err.Error(), nil)})
		}
	}
	key := dbKey(clusterHash, req.Bench, placementStrs, req.Fitted)
	db, err := s.lookupDB(key, cfg, req.Bench, placements, req.Fitted)
	s.met.observeStage("db", time.Since(dbStart).Microseconds())
	if err != nil {
		return finish(cachedResult{400, errorBody(hash, "performance database: "+err.Error(), nil)})
	}

	// Stage 3: predict. One detailed evaluation for attribution (and
	// the optional trace), then the Monte-Carlo replications, each in
	// one of the service's slots. Substream seeds make the fold
	// independent of scheduling.
	predStart := time.Now()
	pred, tl, evalErr := s.predict(req, prog, db, &cfg)
	s.met.observeStage("predict", time.Since(predStart).Microseconds())
	if evalErr != nil {
		return finish(cachedResult{422, errorBody(hash, "evaluation: "+evalErr.Error(), nil)})
	}
	s.met.inc("predictions_total")

	// Stage 4: encode the canonical response body.
	encStart := time.Now()
	res, err := s.encode(req, hash, clusterHash, placementStrs, lint, pred, tl)
	s.met.observeStage("encode", time.Since(encStart).Microseconds())
	if err != nil {
		return finish(cachedResult{400, errorBody(hash, "encode: "+err.Error(), nil)})
	}
	return finish(res)
}

// lookupDB serves the fitted performance database for key, building it
// at most once across concurrent requests. The histograms inside an
// EmpiricalDB are frozen at construction, so one database is safely
// shared read-only by every prediction that keys to it.
func (s *Service) lookupDB(key string, cfg cluster.Config, bench BenchSpec,
	placements []cluster.Placement, fitted bool) (pevpm.PerfDB, error) {
	if db, ok := s.dbCache.get(key); ok {
		s.met.cacheEvent("db", true)
		return db, nil
	}
	s.met.cacheEvent("db", false)
	db, err, _, _ := s.dbFlight.do(key, nil, func() (pevpm.PerfDB, error) {
		// Double-check under the flight: a just-finished leader may have
		// populated the cache between our miss and our flight slot. The
		// miss above already counted this request's lookup.
		if db, ok := s.dbCache.peek(key); ok {
			return db, nil
		}
		db, err := s.buildDB(cfg, bench, placements, fitted)
		if err != nil {
			return nil, err
		}
		s.dbCache.put(key, db)
		s.met.inc("db_builds_total")
		return db, nil
	})
	return db, err
}

// buildDB runs the MPIBench sweep and fits the database — the expensive
// path the cache exists to avoid.
func (s *Service) buildDB(cfg cluster.Config, bench BenchSpec,
	placements []cluster.Placement, fitted bool) (pevpm.PerfDB, error) {
	spec := mpibench.Spec{
		Op:          mpibench.Op(bench.Op),
		Sizes:       bench.Sizes,
		Repetitions: bench.Repetitions,
		WarmUp:      bench.WarmUp,
		SyncProbes:  bench.SyncProbes,
		Seed:        bench.Seed,
		Workers:     s.cfg.Workers,
	}.Defaults()
	set, err := mpibench.RunSweep(cfg, spec, placements)
	if err != nil {
		return nil, err
	}
	empirical, err := pevpm.NewEmpiricalDB(set, spec.Op, cfg)
	if err != nil {
		return nil, err
	}
	if !fitted {
		return empirical, nil
	}
	return pevpm.NewFittedDBFrom(empirical)
}

// predict runs the detail evaluation plus the Monte-Carlo replication
// set and folds them into a Prediction. All randomness descends from
// the request seed through named substreams; replication results are
// folded in replication order, so neither the worker count nor
// concurrent traffic can change a single output bit.
func (s *Service) predict(req *Request, prog *pevpm.Program, base pevpm.PerfDB,
	cfg *cluster.Config) (*Prediction, *trace.Log, error) {
	var db pevpm.PerfDB
	switch req.Mode {
	case "dist":
		db = base
	case "avg-nxp":
		db = pevpm.Collapse(base, pevpm.ModeMean)
	case "avg-2x1":
		db = pevpm.Collapse(pevpm.FixContention(base, 2), pevpm.ModeMean)
	case "min-2x1":
		db = pevpm.Collapse(pevpm.FixContention(base, 2), pevpm.ModeMin)
	}
	nodes := (req.Procs + req.PerNode - 1) / req.PerNode
	pl, err := cluster.NewPlacement(cfg, nodes, req.PerNode)
	if err != nil {
		return nil, nil, err
	}

	// Detail evaluation: breakdowns, hot spots, optional trace.
	detailOpts := pevpm.Options{
		Procs:  req.Procs,
		DB:     db,
		Seed:   sim.SubSeed(req.Seed, "service:detail"),
		NodeOf: pl.NodeOf,
	}
	var tl *trace.Log
	if req.Trace {
		tl = trace.NewLog(2_000_000)
		detailOpts.Trace = tl
	}
	detail, err := pevpm.Evaluate(prog, detailOpts)
	if err != nil {
		return nil, nil, err
	}

	// Monte-Carlo replications. The response folds their snapshots
	// alone, not the sweep's own counters, so each cell keeps its
	// snapshot in snaps and Map gets no aggregate.
	snaps := make([]metrics.Snapshot, req.Runs)
	makespans, err := sweep.Map(s.cfg.Workers, req.Runs, nil, func(i int) (float64, metrics.Snapshot, error) {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		rep, err := s.evaluate(prog, pevpm.Options{
			Procs:  req.Procs,
			DB:     db,
			Seed:   sim.SubSeed(req.Seed, fmt.Sprintf("service:rep%d", i)),
			NodeOf: pl.NodeOf,
		})
		if err != nil {
			return 0, metrics.Snapshot{}, err
		}
		snaps[i] = rep.Metrics
		return rep.Makespan, metrics.Snapshot{}, nil
	})
	s.met.add("replications_total", uint64(req.Runs))
	if err != nil {
		return nil, nil, err
	}

	// Fold in replication order — the determinism contract's merge rule.
	var sum stats.Summary
	agg := metrics.NewAggregate()
	for i, m := range makespans {
		sum.Add(m)
		agg.Merge(snaps[i])
	}

	meanCI := stats.StudentCI(sum, 0.95)
	qCI := stats.NewBootstrap(200).QuantileCI(
		makespans, req.Quantile, 0.95, sim.NewCellRNG(req.Seed, "service:bootstrap"))

	pred := &Prediction{
		Runs:       req.Runs,
		Mean:       sum.Mean,
		Std:        sum.Std(),
		Min:        sum.Min,
		Max:        sum.Max,
		MeanCI:     fromStats(meanCI),
		Quantile:   req.Quantile,
		QuantileCI: fromStats(qCI),
		Sweeps:     detail.Sweeps,
		Messages:   detail.MessagesSent,
	}
	var compute, send, wait float64
	for _, b := range detail.Breakdowns {
		compute += b.Compute
		send += b.SendBusy
		wait += b.RecvWait
	}
	if n := float64(len(detail.Breakdowns)); n > 0 {
		pred.Breakdown = Breakdown{Compute: compute / n, SendBusy: send / n, RecvWait: wait / n}
	}
	for i, h := range detail.HotSpots() {
		if i >= 5 {
			break
		}
		pred.HotSpots = append(pred.HotSpots, HotSpot{Directive: h.Directive, Wait: h.Wait})
	}
	pred.metricsSnapshot = agg.Snapshot()
	return pred, tl, nil
}

// fromStats converts a stats.Interval into the wire type.
func fromStats(iv stats.Interval) Interval {
	return Interval{Point: iv.Point, Lo: iv.Lo, Hi: iv.Hi, Level: iv.Level, N: iv.N}
}

// encode renders the canonical response body: indented JSON plus a
// trailing newline, fields in struct order, no wall-clock or cache
// state anywhere — the bytes the golden replies pin.
func (s *Service) encode(req *Request, hash, clusterHash string, placements []string,
	lint LintInfo, pred *Prediction, tl *trace.Log) (cachedResult, error) {
	resp := Response{
		Schema:      Schema,
		RequestHash: hash,
		Cluster:     req.Cluster.Name,
		ClusterHash: clusterHash,
		Topology:    req.Cluster.Topology,
		Procs:       req.Procs,
		PerNode:     req.PerNode,
		Mode:        req.Mode,
		Seed:        req.Seed,
		DB: DBInfo{
			Key:          dbKey(clusterHash, req.Bench, placements, req.Fitted),
			BenchVersion: BenchVersion,
			Op:           req.Bench.Op,
			Placements:   placements,
			Sizes:        req.Bench.Sizes,
			Fitted:       req.Fitted,
		},
		Lint:       lint,
		Prediction: pred,
	}
	var mbuf bytes.Buffer
	if err := pred.metricsSnapshot.WriteJSON(&mbuf); err != nil {
		return cachedResult{}, err
	}
	resp.Metrics = json.RawMessage(bytes.TrimSpace(mbuf.Bytes()))
	if tl != nil {
		var tbuf bytes.Buffer
		if err := tl.WriteChromeTrace(&tbuf); err != nil {
			return cachedResult{}, err
		}
		resp.Trace = json.RawMessage(bytes.TrimSpace(tbuf.Bytes()))
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return cachedResult{}, err
	}
	return cachedResult{Status: 200, Body: append(body, '\n')}, nil
}
