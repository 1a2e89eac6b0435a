package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
)

// Satellite: the sharded Dense (p=32, g=4, k=2) run must be
// byte-identical at 1 vs 4 shards, healthy and under the
// congested-backplane scenario.
func TestPatternRunShardDeterminism(t *testing.T) {
	base := PatternRunSpec{
		Topo:    "fattree:2048x32x8",
		Pattern: mpibench.PatternDense,
		P:       32, G: 4, K: 2,
		Direction: mpibench.Omnidirectional,
		Rounds:    2,
		Window:    2,
		Size:      8192,
		Seed:      9,
	}
	topo, nodes, err := cluster.ParseTopology(base.Topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []string{"", "congested-backplane"} {
		spec := base
		if scenario != "" {
			sched, err := cluster.Scenario(scenario, 13, cluster.ScenarioEnv{
				Nodes: nodes, Segments: topo.NumSegments(), Span: 1.0,
			})
			if err != nil {
				t.Fatal(err)
			}
			spec.Faults = sched
		}
		var reports []*LargeRunReport
		for _, shards := range []int{1, 4} {
			spec.Workers = shards
			rep, err := PatternRun(spec)
			if err != nil {
				t.Fatalf("scenario %q shards %d: %v", scenario, shards, err)
			}
			reports = append(reports, rep)
		}
		a, b := reports[0], reports[1]
		if a.Transcript != b.Transcript {
			t.Errorf("scenario %q: transcripts differ between 1 and 4 shards", scenario)
		}
		if a.Makespan != b.Makespan || a.Windows != b.Windows || a.Counters != b.Counters {
			t.Errorf("scenario %q: makespan/windows/counters differ: %v/%d/%+v vs %v/%d/%+v",
				scenario, a.Makespan, a.Windows, a.Counters, b.Makespan, b.Windows, b.Counters)
		}
		if a.Manifest != b.Manifest {
			t.Errorf("scenario %q: manifests differ", scenario)
		}
	}
}

func TestPatternRunValidation(t *testing.T) {
	spec := PatternRunSpec{
		Topo:    "fattree:64x8x4",
		Pattern: mpibench.PatternDense,
		P:       32, G: 4, K: 2, // 128 ranks on a 64-node machine
		Direction: mpibench.Unidirectional,
		Rounds:    1, Window: 1, Size: 4096, Seed: 1,
	}
	if _, err := PatternRun(spec); err == nil {
		t.Error("oversized pattern should fail")
	}
	spec.P = 8
	spec.Size = 0
	if _, err := PatternRun(spec); err == nil {
		t.Error("zero size should fail")
	}
}

// TestPatternRunRefusesBeforeBuild: a spec PatternRun refuses, for a
// pattern with more p·g ranks than the topology has nodes (here
// 4²·300·299 = 1,435,200 pairs) or for a bad run size with a pattern
// that fits (32·31·32² = 1,015,808 pairs), allocates no matrix.
func TestPatternRunRefusesBeforeBuild(t *testing.T) {
	oversized := PatternRunSpec{
		Topo: "fattree:64x8x4", Pattern: mpibench.PatternDense,
		P: 4, G: 300, K: 4, Direction: mpibench.Omnidirectional,
		Rounds: 1, Window: 1, Size: 4096, Seed: 1,
	}
	sizeless := PatternRunSpec{
		Topo: "fattree:2048x32x8", Pattern: mpibench.PatternDense,
		P: 64, G: 32, K: 32, Direction: mpibench.Omnidirectional,
		Rounds: 1, Window: 1, Size: 0, Seed: 1,
	}
	for _, tc := range []struct {
		spec PatternRunSpec
		want string
	}{
		{oversized, "needs p*g"},
		{sizeless, "size must be positive"},
	} {
		var stats runtime.MemStats
		runtime.ReadMemStats(&stats)
		before := stats.TotalAlloc
		_, err := PatternRun(tc.spec)
		runtime.ReadMemStats(&stats)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s p=%d g=%d: error %v, want %q", tc.spec.Topo, tc.spec.P, tc.spec.G, err, tc.want)
		}
		if got := stats.TotalAlloc - before; got > 1<<20 {
			t.Errorf("%s p=%d g=%d: refusing allocated %d bytes", tc.spec.Topo, tc.spec.P, tc.spec.G, got)
		}
	}
}

// Acceptance: Rail, Fan and Dense over a fat tree and a dragonfly, with
// the PEVPM-predicted makespan interval overlapping the simulated one
// on every cell. Reduced round counts keep the test quick; the shipped
// defaults run through cmd/run -app patternstudy and ci.sh.
func TestPatternStudyPredictionsAgree(t *testing.T) {
	rows, err := PatternStudy(PatternStudyParams{
		CalRounds: 16,
		ValRounds: 30,
		Reps:      30,
		Seed:      42,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	topos := map[string]bool{}
	for _, row := range rows {
		topos[row.Topo] = true
		if row.Predicted.Hi <= 0 || row.Simulated.Hi <= 0 {
			t.Errorf("%s/%s: degenerate intervals %+v %+v", row.Topo, row.Pattern, row.Predicted, row.Simulated)
		}
		if !row.Agree {
			t.Errorf("%s/%s: predicted %v does not overlap simulated %v",
				row.Topo, row.Pattern, row.Predicted, row.Simulated)
		}
		if row.Bandwidth <= 0 {
			t.Errorf("%s/%s: bandwidth %v", row.Topo, row.Pattern, row.Bandwidth)
		}
	}
	if len(topos) != 2 {
		t.Errorf("study should span both topologies, got %v", topos)
	}
}

// The study itself is a sweep: worker count must not move a byte.
func TestPatternStudyWorkerDeterminism(t *testing.T) {
	params := PatternStudyParams{
		Cells: []PatternStudyCell{
			{Topo: "fattree:256x32x8", Pattern: mpibench.PatternDense,
				P: 32, G: 4, K: 2, Window: 2, Size: 16384,
				Direction: mpibench.Unidirectional},
			{Topo: "dragonfly:8x4x8", Pattern: mpibench.PatternRail,
				P: 32, G: 4, K: 2, Window: 2, Size: 16384,
				Direction: mpibench.Unidirectional},
		},
		CalRounds: 8, ValRounds: 10, Reps: 10, Seed: 5,
	}
	params.Workers = 1
	serial, err := PatternStudy(params)
	if err != nil {
		t.Fatal(err)
	}
	params.Workers = 8
	parallel, err := PatternStudy(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}
