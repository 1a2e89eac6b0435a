package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPermilleIsHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{0, 0},
		{19, 0},   // p50 leaves 9 beyond
		{20, 500}, // p50 leaves 10
		{91, 500}, // p90 leaves 9
		{92, 900},
		{181, 900}, // p95 leaves 9
		{182, 950}, // p95 leaves exactly 10
		{901, 950}, // p99 leaves 9
		{902, 990},
		{9001, 990},
		{9002, 999},
	} {
		if got := tailPermille(tc.n); got != tc.want {
			t.Errorf("tailPermille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestTailPermilleAgreesWithCounting checks the rule against a direct
// count of the samples ranked above each percentile's position.
func TestTailPermilleAgreesWithCounting(t *testing.T) {
	beyond := func(n, p int) int {
		count := 0
		for i := 0; i < n; i++ {
			if i*1000 > (n-1)*p { // 0-based rank i lies above rank (n-1)·p/1000
				count++
			}
		}
		return count
	}
	for n := 1; n <= 2500; n++ {
		p := tailPermille(n)
		if p != 0 && beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%.1f has %d samples beyond it", n, float64(p)/10, beyond(n, p))
		}
		for _, higher := range standardPermille {
			if higher > p && beyond(n, higher) >= 10 {
				t.Fatalf("n=%d: chose p%.1f but p%.1f has %d beyond it", n, float64(p)/10, float64(higher)/10, beyond(n, higher))
			}
		}
	}
}

func TestQuantileInterpolatesClosestRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if want := []float64{4, 1, 3, 2, 5}; !reflect.DeepEqual(xs, want) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestLimitRunsFixedRoundsOrAtLeastTheMinimum(t *testing.T) {
	count := func(l limit) int {
		ran := 0
		for r := 0; l.more(r) && r < 100; r++ {
			ran++
		}
		return ran
	}
	if got := count(limit{rounds: 5}); got != 5 {
		t.Errorf("fixed limit ran %d rounds, want 5", got)
	}
	if got := count(limit{}); got != minRounds {
		t.Errorf("an expired deadline ran %d rounds, want the minimum %d", got, minRounds)
	}
	if got := count(limit{deadline: time.Now().Add(time.Hour)}); got != 100 {
		t.Errorf("a distant deadline stopped after %d rounds", got)
	}
}

// TestBenchmarkJSONMatchesPrintedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesPrintedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEndDefs)
	same("per_layer", bm.PerLayer, perLayerDefs)
	if len(bm.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(benchWorkloads))
	}
	for _, w := range bm.Workloads {
		if _, ok := benchWorkloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
