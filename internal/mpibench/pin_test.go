package mpibench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pin.golden")

// pinGolden holds one line per pinned pattern point and one for the
// JSON of an operation result set. Rewrite it only on purpose, with
// go test ./internal/mpibench -run TestResultPin -update-golden.
const pinGolden = "testdata/pin.golden"

func pinHash(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(data)
	return fmt.Sprintf("%x", s[:8])
}

// pinPatternLines renders every point of every pattern result: hashes
// of its Hist, MaxHist and Est, the exact bytes per round and bandwidth
// bits, and the result's samples, retries, fault drops and cluster hash.
func pinPatternLines(t *testing.T, results []*Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		for _, pt := range r.Points {
			fmt.Fprintf(&b, "%s size=%d hist=%s max=%s est=%s bytes=%d bw=%016x samples=%d retries=%d drops=%d cluster=%s\n",
				r.Pattern, pt.Size, pinHash(t, pt.Hist), pinHash(t, pt.MaxHist), pinHash(t, pt.Est),
				pt.BytesPerRound, math.Float64bits(pt.Bandwidth),
				r.Samples, r.Retries, r.FaultDrops, r.Manifest.ClusterHash)
		}
	}
	return b.String()
}

// pinPatterns runs the Rail/Fan/Dense sweep, uni and omni, on a
// 128-node fat tree at 1 and 4 workers (which must agree), then one
// Dense cell under lossy-links.
func pinPatterns(t *testing.T) string {
	cfg, pl := patternTestCluster(t, "fattree:128x32x4")
	var cells []PatternCell
	for _, dir := range []Direction{Unidirectional, Omnidirectional} {
		for _, name := range []string{PatternRail, PatternFan, PatternDense} {
			cells = append(cells, PatternCell{Pattern: name, P: 32, G: 4, K: 2, Direction: dir})
		}
	}
	base := PatternSpec{
		Placement: pl,
		Sizes:     []int{1024, 16384},
		Rounds:    6,
		WarmUp:    2,
		Window:    2,
		Estimates: true,
		Seed:      7,
	}
	var lines []string
	for _, workers := range []int{1, 4} {
		s := base
		s.Workers = workers
		set, err := RunPatternSweep(cfg, s, cells, nil)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		lines = append(lines, pinPatternLines(t, set.Results))
	}
	if lines[0] != lines[1] {
		t.Fatalf("pattern sweep differs between 1 and 4 workers:\n%s---\n%s", lines[0], lines[1])
	}

	sched, err := cluster.Scenario("lossy-links", 11, cluster.ScenarioEnv{
		Nodes: cfg.Nodes, Segments: cfg.NumSegments(), Span: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.Pattern, faulted.P, faulted.G, faulted.K = PatternDense, 32, 4, 2
	faulted.Direction = Omnidirectional
	faulted.Sizes = []int{4096}
	faulted.Faults = sched
	res, err := RunPattern(cfg, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 && res.FaultDrops == 0 {
		t.Error("lossy-links cell recorded no retries or fault drops")
	}
	return lines[0] + "faulted " + pinPatternLines(t, []*Result{res})
}

// goVersionField matches the toolchain name the manifest records.
var goVersionField = regexp.MustCompile(`"go_version": "[^"]*"`)

// pinOps builds an operation result set — an MPI_Isend sweep, an
// MPI_Bcast with estimates and an adaptive MPI_Send run — and hashes
// its JSON with the toolchain name blanked.
func pinOps(t *testing.T) string {
	cfg := cluster.Perseus()
	spec := Spec{
		Op: OpIsend, Sizes: []int{0, 1024}, Repetitions: 20, WarmUp: 5,
		SyncProbes: 8, Seed: 3,
	}
	set, err := RunSweep(cfg, spec, []cluster.Placement{place(t, &cfg, 2, 1), place(t, &cfg, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bcast := spec
	bcast.Op = OpBcast
	bcast.Placement = place(t, &cfg, 4, 1)
	bcast.Estimates = true
	res, err := Run(cfg, bcast)
	if err != nil {
		t.Fatal(err)
	}
	set.Add(res)
	adaptive := spec
	adaptive.Op = OpSend
	adaptive.Sizes = []int{1024}
	adaptive.Placement = place(t, &cfg, 2, 1)
	adaptive.Target = &Target{RelWidth: 0.02, MaxBatches: 2}
	if res, err = Run(cfg, adaptive); err != nil {
		t.Fatal(err)
	}
	set.Add(res)
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := goVersionField.ReplaceAll(buf.Bytes(), []byte(`"go_version": ""`))
	s := sha256.Sum256(data)
	return fmt.Sprintf("ops json=%x bytes=%d results=%d\n", s[:8], len(data), len(set.Results))
}

// TestResultPin holds the benchmark's measured outputs to
// testdata/pin.golden: every pattern point of a Rail/Fan/Dense sweep
// (healthy and under a fault schedule) and the exact JSON of an
// operation result set.
func TestResultPin(t *testing.T) {
	got := pinPatterns(t) + pinOps(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinGolden)
	if err != nil {
		t.Fatalf("%v (write it with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("benchmark outputs moved from %s (rewrite only on purpose with -update-golden)\n--- want ---\n%s--- got ---\n%s",
			pinGolden, want, got)
	}
}
