// Command pevpmd serves the PEVPM prediction pipeline over HTTP and
// doubles as its own CI client.
//
// Server:
//
//	pevpmd -addr 127.0.0.1:8080 -workers 8
//
// POST /v1/predict takes a JSON request (a .pvm model, cluster and
// benchmark spec, seed and options) and returns the predicted makespan
// distribution with confidence intervals, lint findings, a metrics
// snapshot and optionally a Chrome trace. Response bodies are
// deterministic: same request + seed → same bytes, which the client
// modes exploit.
//
// Client modes (against a running server):
//
//	pevpmd -target http://127.0.0.1:8080 -replay cmd/pevpmd/testdata
//	pevpmd -target http://127.0.0.1:8080 -replay cmd/pevpmd/testdata -smoke 32
//
// -replay is the CI service-gate: every testdata/req_<status>_<name>.json
// is POSTed twice sequentially (the second must be a byte-identical
// cache hit) and twice concurrently (byte-identical again), then
// byte-diffed against the committed golden_<status>_<name>.json.
// -update-golden rewrites the goldens instead of diffing. -smoke N
// fires N concurrent mixed requests, asserts duplicates dedupe to
// identical bytes, and writes a cache-hit-rate and per-stage latency
// table to stdout and GITHUB_STEP_SUMMARY.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 with -addr-file for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", 0, "replications evaluating at once across all requests, and cells per database build (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request size limit in bytes")
	dbCache := flag.Int("db-cache", 16, "performance-database LRU capacity")
	respCache := flag.Int("resp-cache", 256, "response LRU capacity")

	target := flag.String("target", "", "server URL for the client modes")
	replay := flag.String("replay", "", "client mode: replay golden requests from this directory")
	updateGolden := flag.Bool("update-golden", false, "rewrite golden replies instead of diffing")
	smoke := flag.Int("smoke", 0, "client mode: fire N concurrent mixed requests from the -replay directory")
	flag.Parse()

	if *replay != "" || *smoke > 0 {
		if *target == "" {
			fatal(fmt.Errorf("client modes need -target http://host:port"))
		}
		if *replay == "" {
			fatal(fmt.Errorf("-smoke needs -replay <dir> for its request corpus"))
		}
		if err := waitReady(*target); err != nil {
			fatal(err)
		}
		if *smoke > 0 {
			if err := runSmoke(*target, *replay, *smoke); err != nil {
				fatal(err)
			}
			return
		}
		if err := runReplay(*target, *replay, *updateGolden); err != nil {
			fatal(err)
		}
		return
	}

	serve(*addr, *addrFile, service.Config{
		Workers:       *workers,
		Timeout:       *timeout,
		MaxBodyBytes:  *maxBody,
		DBCacheSize:   *dbCache,
		RespCacheSize: *respCache,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pevpmd:", err)
	os.Exit(1)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully: stop accepting, drain handlers, then wait for the
// computations of requests that timed out.
func serve(addr, addrFile string, cfg service.Config) {
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "pevpmd: listening on %s (workers=%d)\n", ln.Addr(), svc.Config().Workers)

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	//detlint:allow wallclock -- shutdown-signal vs server-error race is inherently wall-clock; operational plumbing, not simulation output
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "pevpmd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pevpmd: shutdown:", err)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
	svc.Close()
}

// waitReady polls the server's liveness endpoint until it answers.
func waitReady(target string) error {
	var lastErr error
	for i := 0; i < 100; i++ {
		resp, err := http.Get(target + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
			lastErr = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			lastErr = err
		}
		//detlint:allow wallclock -- client-mode startup poll against a real server; nothing here feeds simulation output
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became ready: %w", target, lastErr)
}

// requestFiles lists the replay corpus: req_<status>_<name>.json sorted
// by name for a stable replay order.
func requestFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "req_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no req_*.json files in %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// expectedStatus parses the status a request file encodes in its name.
func expectedStatus(reqPath string) (int, error) {
	base := strings.TrimSuffix(filepath.Base(reqPath), ".json")
	parts := strings.SplitN(base, "_", 3)
	if len(parts) < 3 {
		return 0, fmt.Errorf("%s: want req_<status>_<name>.json", reqPath)
	}
	return strconv.Atoi(parts[1])
}

func post(target string, body []byte) (int, string, []byte, error) {
	resp, err := http.Post(target+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, nil
}

// runReplay is the service-gate: deterministic bytes for repeated and
// concurrent identical requests, pinned against committed goldens.
func runReplay(target, dir string, update bool) error {
	files, err := requestFiles(dir)
	if err != nil {
		return err
	}
	for _, reqPath := range files {
		wantStatus, err := expectedStatus(reqPath)
		if err != nil {
			return err
		}
		reqBody, err := os.ReadFile(reqPath)
		if err != nil {
			return err
		}
		name := filepath.Base(reqPath)

		// 1. Cold request.
		status, _, first, err := post(target, reqBody)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if status != wantStatus {
			return fmt.Errorf("%s: status %d, want %d; body:\n%s", name, status, wantStatus, first)
		}

		// 2. Same request again: must replay from the response cache,
		// byte-identical.
		status2, cache2, second, err := post(target, reqBody)
		if err != nil {
			return fmt.Errorf("%s (repeat): %w", name, err)
		}
		if status2 != status || !bytes.Equal(first, second) {
			return fmt.Errorf("%s: repeated request returned different bytes (status %d vs %d)", name, status, status2)
		}
		if cache2 != "hit" {
			return fmt.Errorf("%s: repeated request was not served from cache (X-Cache=%q)", name, cache2)
		}

		// 3. Two concurrent clients: identical bytes regardless of
		// interleaving.
		type out struct {
			body []byte
			err  error
		}
		results := make(chan out, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, _, body, err := post(target, reqBody)
				results <- out{body, err}
			}()
		}
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				return fmt.Errorf("%s (concurrent): %w", name, r.err)
			}
			if !bytes.Equal(first, r.body) {
				return fmt.Errorf("%s: concurrent client got different bytes", name)
			}
		}

		// 4. Golden diff (or rewrite).
		goldenPath := filepath.Join(dir, strings.Replace(name, "req_", "golden_", 1))
		if update {
			if err := os.WriteFile(goldenPath, first, 0o644); err != nil {
				return err
			}
			fmt.Printf("replay: %-28s status %d — golden updated (%d bytes)\n", name, status, len(first))
			continue
		}
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			return fmt.Errorf("%s: no golden reply (run with -update-golden): %w", name, err)
		}
		if !bytes.Equal(first, golden) {
			return fmt.Errorf("%s: response diverged from %s\n%s", name, goldenPath, firstDiff(golden, first))
		}
		fmt.Printf("replay: %-28s status %d — deterministic, cached, matches golden (%d bytes)\n",
			name, status, len(first))
	}

	// The cache-hit counter must prove cached requests skipped
	// prediction.
	st, err := fetchStats(target)
	if err != nil {
		return err
	}
	if st.Caches["response"].Hits == 0 {
		return fmt.Errorf("service reported zero response-cache hits after replay")
	}
	fmt.Printf("replay: %d request(s) verified; response cache: %d hits / %d misses; predictions run: %d\n",
		len(files), st.Caches["response"].Hits, st.Caches["response"].Misses, st.Predictions)
	return nil
}

// firstDiff renders the first byte divergence with context.
func firstDiff(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) string {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		if lo >= len(b) {
			return ""
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("first divergence at byte %d:\n  golden: …%s…\n  got:    …%s…", i, clip(want), clip(got))
}

type statsReply struct {
	Requests    uint64 `json:"requests"`
	Predictions uint64 `json:"predictions"`
	DBBuilds    uint64 `json:"db_builds"`
	Coalesced   uint64 `json:"coalesced"`
	Caches      map[string]struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"caches"`
	Stages map[string]struct {
		Count  uint64  `json:"count"`
		MeanUS float64 `json:"mean_us"`
	} `json:"stages"`
}

func fetchStats(target string) (*statsReply, error) {
	resp, err := http.Get(target + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var st statsReply
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// runSmoke fires n concurrent requests cycling through the corpus, so
// duplicates are guaranteed, then verifies every duplicate got the
// bytes of its first answer and reports cache behaviour as a markdown
// table.
func runSmoke(target, dir string, n int) error {
	files, err := requestFiles(dir)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(files))
	for i, f := range files {
		if bodies[i], err = os.ReadFile(f); err != nil {
			return err
		}
	}

	type result struct {
		file int
		body []byte
		err  error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			file := i % len(files)
			_, _, body, err := post(target, bodies[file])
			results[i] = result{file, body, err}
		}()
	}
	wg.Wait()

	first := make([][]byte, len(files))
	dupes := 0
	for _, r := range results {
		if r.err != nil {
			return fmt.Errorf("smoke request failed: %w", r.err)
		}
		if first[r.file] == nil {
			first[r.file] = r.body
			continue
		}
		dupes++
		if !bytes.Equal(first[r.file], r.body) {
			return fmt.Errorf("smoke: duplicate request for %s got different bytes", filepath.Base(files[r.file]))
		}
	}

	st, err := fetchStats(target)
	if err != nil {
		return err
	}
	table := renderSmokeTable(n, len(files), dupes, st)
	fmt.Print(table)

	//detlint:allow wallclock -- CI reporting plumbing: the step-summary path comes from the Actions runner, never from simulation code
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.WriteString(table); err != nil {
			return err
		}
	}
	return nil
}

// renderSmokeTable builds the GITHUB_STEP_SUMMARY markdown: dedupe
// verdict, cache hit rates, per-stage latency.
func renderSmokeTable(n, unique, dupes int, st *statsReply) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## pevpmd load smoke\n\n")
	fmt.Fprintf(&b, "%d concurrent requests over %d unique bodies — %d duplicates, all byte-identical ✓\n\n",
		n, unique, dupes)
	fmt.Fprintf(&b, "| cache | entries | hits | misses | hit rate |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, name := range []string{"response", "db"} {
		c := st.Caches[name]
		total := c.Hits + c.Misses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(c.Hits) / float64(total)
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1f%% |\n", name, c.Entries, c.Hits, c.Misses, rate)
	}
	fmt.Fprintf(&b, "\n| stage | observations | mean latency |\n")
	fmt.Fprintf(&b, "|---|---|---|\n")
	stages := make([]string, 0, len(st.Stages))
	for s := range st.Stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(&b, "| %s | %d | %.0f µs |\n", s, st.Stages[s].Count, st.Stages[s].MeanUS)
	}
	fmt.Fprintf(&b, "\npredictions executed: %d · coalesced: %d · db builds: %d\n",
		st.Predictions, st.Coalesced, st.DBBuilds)
	return b.String()
}
