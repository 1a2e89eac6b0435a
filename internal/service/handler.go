package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// CacheStats is one cache's /v1/stats entry.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// StageStats summarises one pipeline stage's observed latency.
type StageStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
}

// Stats is the GET /v1/stats body: the operator's quick view. Unlike a
// prediction response it is NOT deterministic — it reflects live cache
// and latency state — which is why it lives on its own endpoint instead
// of inside prediction replies.
type Stats struct {
	Schema       int                   `json:"schema"`
	Requests     uint64                `json:"requests"`
	Predictions  uint64                `json:"predictions"`
	Replications uint64                `json:"replications"`
	DBBuilds     uint64                `json:"db_builds"`
	Coalesced    uint64                `json:"coalesced"`
	Caches       map[string]CacheStats `json:"caches"`
	Stages       map[string]StageStats `json:"stages"`
	Workers      int                   `json:"workers"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/predict  — run (or replay) a prediction
//	GET  /v1/stats    — live cache/latency counters (JSON)
//	GET  /metrics     — every instrument in Prometheus exposition format
//	GET  /healthz     — liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reply(w, "predict", Result{Status: http.StatusMethodNotAllowed,
			Body: errorBody("", "method not allowed: POST a prediction request", nil)})
		return
	}
	s.met.addInflight(1)
	defer s.met.addInflight(-1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reply(w, "predict", Result{Status: http.StatusRequestEntityTooLarge,
				Body: errorBody("", "request body exceeds the service limit", nil)})
			return
		}
		s.reply(w, "predict", Result{Status: http.StatusBadRequest,
			Body: errorBody("", "request: "+err.Error(), nil)})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	res := s.HandleRequest(ctx, body)
	s.reply(w, "predict", res)
}

// reply writes one Result, surfacing cache provenance in headers only —
// never in the body, which must stay a pure function of the request.
func (s *Service) reply(w http.ResponseWriter, endpoint string, res Result) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if res.Hash != "" {
		w.Header().Set("X-Request-Hash", res.Hash)
	}
	if res.Cache != "" {
		w.Header().Set("X-Cache", res.Cache)
	}
	w.WriteHeader(res.Status)
	w.Write(res.Body)
	s.met.incRequest(endpoint, res.Status)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.snapshotAll().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.met.incRequest("metrics", http.StatusOK)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.Stats()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(stats)
	s.met.incRequest("stats", http.StatusOK)
}

// Stats assembles the live operational counters.
func (s *Service) Stats() Stats {
	snap := s.met.snapshotAll()
	out := Stats{
		Schema:  Schema,
		Caches:  make(map[string]CacheStats, 2),
		Stages:  make(map[string]StageStats, 4),
		Workers: s.cfg.Workers,
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "requests_total":
			out.Requests += c.Value
		case "predictions_total":
			out.Predictions = c.Value
		case "replications_total":
			out.Replications = c.Value
		case "db_builds_total":
			out.DBBuilds = c.Value
		case "coalesced_total":
			out.Coalesced = c.Value
		}
	}
	entries, hits, misses := s.respCache.stats()
	out.Caches["response"] = CacheStats{Entries: entries, Hits: hits, Misses: misses}
	entries, hits, misses = s.dbCache.stats()
	out.Caches["db"] = CacheStats{Entries: entries, Hits: hits, Misses: misses}
	for _, h := range snap.Histograms {
		if h.Name != "stage_latency_us" || h.Count == 0 {
			continue
		}
		stage := "unknown"
		for _, l := range h.Labels {
			if l.Key == "stage" {
				stage = l.Value
			}
		}
		out.Stages[stage] = StageStats{
			Count:  h.Count,
			MeanUS: float64(h.Sum) / float64(h.Count),
		}
	}
	return out
}
