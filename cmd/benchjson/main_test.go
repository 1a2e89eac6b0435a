package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// cell builds an interval cell around a mean with symmetric half-width.
func cell(mean, half float64) Cell {
	return Cell{N: 3, Mean: mean, Lo: mean - half, Hi: mean + half, Min: mean - half, Max: mean + half}
}

func bench(metrics map[string]Cell) *File {
	return &File{Schema: Schema, Reps: 3, Calibration: 1.0, Metrics: metrics}
}

func TestCompareOverlappingIntervalsPass(t *testing.T) {
	base := bench(map[string]Cell{
		"fig1_wall_s": cell(2.0, 0.2),
		"fig1_ratio":  cell(1.70, 0.05),
	})
	cur := bench(map[string]Cell{
		"fig1_wall_s": cell(2.1, 0.2),   // overlaps [1.8, 2.2]
		"fig1_ratio":  cell(1.74, 0.02), // overlaps [1.65, 1.75]
	})
	if got, _ := compare(cur, base); got != 0 {
		t.Errorf("overlapping intervals: compare = %d, want 0", got)
	}
}

func TestCompareDisjointRegressionFails(t *testing.T) {
	base := bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
	cur := bench(map[string]Cell{"fig1_wall_s": cell(2.5, 0.1)}) // [2.4, 2.6] vs [1.9, 2.1]
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("disjoint wall regression: compare = %d, want 1", got)
	}
}

func TestCompareWallSpeedupPasses(t *testing.T) {
	// Disjoint in the IMPROVEMENT direction: current entirely below
	// baseline. Wall metrics only gate regressions.
	base := bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
	cur := bench(map[string]Cell{"fig1_wall_s": cell(0.5, 0.1)})
	if got, _ := compare(cur, base); got != 0 {
		t.Errorf("speedup: compare = %d, want 0", got)
	}
}

func TestCompareCalibrationNormalisesWall(t *testing.T) {
	// Machine half as fast: calibration doubles, wall doubles, the
	// normalised intervals coincide and the check passes.
	base := bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.2)})
	cur := bench(map[string]Cell{"fig1_wall_s": cell(4.0, 0.4)})
	cur.Calibration = 2.0
	if got, _ := compare(cur, base); got != 0 {
		t.Errorf("calibration-scaled wall: compare = %d, want 0", got)
	}
	// Same wall cells but the calibration says the machine is the same
	// speed: a genuine 2x simulator slowdown, disjoint, fails.
	cur.Calibration = 1.0
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("genuine wall regression: compare = %d, want 1", got)
	}
}

func TestCompareFigureDriftFailsBothDirections(t *testing.T) {
	base := bench(map[string]Cell{"fig1_ratio": cell(1.70, 0.02)})
	for _, mean := range []float64{1.90, 1.50} {
		cur := bench(map[string]Cell{"fig1_ratio": cell(mean, 0.02)})
		if got, _ := compare(cur, base); got != 1 {
			t.Errorf("disjoint figure drift to %v: compare = %d, want 1", mean, got)
		}
	}
}

func TestCompareMissingAndNewMetricsFail(t *testing.T) {
	base := bench(map[string]Cell{"gone": cell(3.0, 0.1)})
	cur := bench(map[string]Cell{"brand_new": cell(3.0, 0.1)})
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("metric set mismatch: compare = %d, want 1", got)
	}
}

func TestCompareBadCalibrationIsUsageError(t *testing.T) {
	// Zero, denormal-tiny, negative, NaN and Inf calibrations would all
	// poison every normalised wall ratio; each must abort the check.
	for name, cal := range map[string]float64{
		"zero":     0,
		"denormal": 5e-324,
		"tiny":     1e-12,
		"negative": -1.0,
		"nan":      math.NaN(),
		"inf":      math.Inf(1),
	} {
		base := bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
		cur := bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
		cur.Calibration = cal
		if got, _ := compare(cur, base); got != 2 {
			t.Errorf("%s calibration: compare = %d, want 2", name, got)
		}
		// The same applies when the baseline is the poisoned file.
		if got, _ := compare(base, cur); got != 2 {
			t.Errorf("%s baseline calibration: compare = %d, want 2", name, got)
		}
	}
}

func TestCompareNaNCellFailsLoudly(t *testing.T) {
	// NaN compares false against every threshold, so without an explicit
	// guard a NaN cell passes both gates silently.
	nan := Cell{N: 3, Mean: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	base := bench(map[string]Cell{"fig1_ratio": cell(1.70, 0.02)})
	cur := bench(map[string]Cell{"fig1_ratio": nan})
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("NaN figure cell: compare = %d, want 1", got)
	}
	base = bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
	cur = bench(map[string]Cell{"fig1_wall_s": nan})
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("NaN wall cell: compare = %d, want 1", got)
	}
	// A NaN hiding in one bound only must fail too.
	half := cell(2.0, 0.1)
	half.Hi = math.Inf(1)
	cur = bench(map[string]Cell{"fig1_wall_s": half})
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("Inf bound: compare = %d, want 1", got)
	}
	// And in the baseline, not just the current run.
	cur = bench(map[string]Cell{"fig1_wall_s": cell(2.0, 0.1)})
	base = bench(map[string]Cell{"fig1_wall_s": nan})
	if got, _ := compare(cur, base); got != 1 {
		t.Errorf("NaN baseline cell: compare = %d, want 1", got)
	}
}

func TestCompareTouchingIntervalsPass(t *testing.T) {
	// Sharing exactly one point is overlap: the gate fails only on
	// strictly disjoint intervals.
	base := bench(map[string]Cell{"fig1_ratio": cell(1.0, 0.1)}) // [0.9, 1.1]
	cur := bench(map[string]Cell{"fig1_ratio": cell(1.2, 0.1)})  // [1.1, 1.3]
	if got, _ := compare(cur, base); got != 0 {
		t.Errorf("touching intervals: compare = %d, want 0", got)
	}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadFileRejectsSchemaMismatch(t *testing.T) {
	// A v1 ledger (bare float metrics) must be refused loudly, not
	// silently reinterpreted as empty intervals.
	v1 := writeTemp(t, "v1.json", `{"schema":1,"go":"go1.x","metrics":{"fig1_ratio":1.7}}`)
	if _, err := readFile(v1); err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Errorf("v1 file: err = %v, want schema mismatch", err)
	}
	v3 := writeTemp(t, "v3.json", `{"schema":3,"metrics":{}}`)
	if _, err := readFile(v3); err == nil || !strings.Contains(err.Error(), "schema 3") {
		t.Errorf("v3 file: err = %v, want schema mismatch", err)
	}
}

// disorderedLedger's only cell has lo > hi, so before readFile checked
// cell bounds, -check accepted it and then failed it against itself.
const disorderedLedger = `{"schema":2,"reps":3,"calibration_wall_s":1,` +
	`"metrics":{"fig1_ratio":{"n":3,"mean":100,"lo":120,"hi":80,"min":90,"max":110}}}`

// TestReadFileRejectsDisorderedCell checks that a cell whose mean lies
// outside its interval or its range is refused as malformed (exit 2),
// not failed as drift (exit 1), and that so is an unusable calibration.
func TestReadFileRejectsDisorderedCell(t *testing.T) {
	for name, ledger := range map[string]string{
		"lo above hi": disorderedLedger,
		"mean below min": `{"schema":2,"calibration_wall_s":1,` +
			`"metrics":{"fig1_ratio":{"n":3,"mean":1,"lo":0.5,"hi":1.5,"min":1.2,"max":1.4}}}`,
		"mean above hi": `{"schema":2,"calibration_wall_s":1,` +
			`"metrics":{"fig1_ratio":{"n":3,"mean":2,"lo":0.5,"hi":1.5,"min":1,"max":2}}}`,
		"zero calibration": `{"schema":2,` +
			`"metrics":{"fig1_ratio":{"n":3,"mean":1,"lo":1,"hi":1,"min":1,"max":1}}}`,
	} {
		path := writeTemp(t, "ledger.json", ledger)
		if _, err := readFile(path); err == nil {
			t.Errorf("%s: readFile accepted it", name)
		}
		if got := runCheck(path, path); got != 2 {
			t.Errorf("%s: runCheck against itself = %d, want 2", name, got)
		}
	}
}

func TestRunCheckSchemaMismatchExitsTwo(t *testing.T) {
	v1 := writeTemp(t, "old.json", `{"schema":1,"metrics":{"fig1_ratio":1.7}}`)
	v2 := writeTemp(t, "new.json",
		`{"schema":2,"reps":3,"calibration_wall_s":1,"metrics":{"fig1_ratio":{"n":3,"mean":1.7,"lo":1.6,"hi":1.8,"min":1.6,"max":1.8}}}`)
	if got := runCheck(v2, v1); got != 2 {
		t.Errorf("v1 baseline: runCheck = %d, want 2", got)
	}
	if got := runCheck(v1, v2); got != 2 {
		t.Errorf("v1 current: runCheck = %d, want 2", got)
	}
}

func TestStepSummaryTable(t *testing.T) {
	summary := filepath.Join(t.TempDir(), "summary.md")
	t.Setenv("GITHUB_STEP_SUMMARY", summary)

	base := bench(map[string]Cell{"fig1_ratio": cell(1.70, 0.02), "fig1_wall_s": cell(2.0, 0.1)})
	cur := bench(map[string]Cell{"fig1_ratio": cell(1.90, 0.02), "fig1_wall_s": cell(2.05, 0.1)})
	code, rows := compare(cur, base)
	if code != 1 {
		t.Fatalf("compare = %d, want 1", code)
	}
	if err := writeStepSummary(rows, code); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"Benchmark gate: FAIL",
		"| metric | baseline (95% CI) | current (95% CI) | verdict |",
		"`fig1_ratio`",
		"`fig1_wall_s`",
		"intervals disjoint",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("step summary missing %q:\n%s", want, out)
		}
	}
}

func TestStepSummaryUnsetIsNoop(t *testing.T) {
	t.Setenv("GITHUB_STEP_SUMMARY", "")
	if err := writeStepSummary([]verdictRow{{name: "x"}}, 0); err != nil {
		t.Errorf("unset summary path: %v", err)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed (compare reports through fmt.Printf).
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCompareNewMetricLinesSorted pins a determinism property of the
// report: FAIL lines for metrics missing from the baseline must print
// in sorted order, not map order. Several iterations make a relapse
// into map order overwhelmingly likely to trip the sorted check.
func TestCompareNewMetricLinesSorted(t *testing.T) {
	base := bench(map[string]Cell{})
	base.Metrics["anchor"] = cell(1, 0)
	cur := bench(map[string]Cell{
		"anchor": cell(1, 0),
		"new_e":  cell(1, 0), "new_b": cell(2, 0), "new_d": cell(3, 0),
		"new_a": cell(4, 0), "new_c": cell(5, 0),
	})
	for i := 0; i < 16; i++ {
		out := captureStdout(t, func() {
			if got, _ := compare(cur, base); got != 1 {
				t.Errorf("compare = %d, want 1", got)
			}
		})
		var names []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "FAIL new_") {
				names = append(names, strings.Fields(line)[1])
			}
		}
		if len(names) != 5 {
			t.Fatalf("iteration %d: got %d new-metric FAIL lines, want 5:\n%s", i, len(names), out)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("iteration %d: new-metric FAIL lines out of order: %v", i, names)
		}
	}
}

// TestFirstNonFiniteStable pins the companion fix in measure: when
// several metrics are non-finite, the one named in the error is the
// alphabetically first, not whichever map order surfaced.
func TestFirstNonFiniteStable(t *testing.T) {
	m := map[string]float64{
		"a_fine": 1.0,
		"b_bad":  math.NaN(),
		"m_bad":  math.Inf(1),
		"z_bad":  math.NaN(),
	}
	for i := 0; i < 32; i++ {
		name, v, bad := firstNonFinite(m)
		if !bad || name != "b_bad" || !math.IsNaN(v) {
			t.Fatalf("iteration %d: firstNonFinite = (%q, %v, %v), want (b_bad, NaN, true)", i, name, v, bad)
		}
	}
	if _, _, bad := firstNonFinite(map[string]float64{"ok": 1}); bad {
		t.Error("all-finite map reported a bad metric")
	}
}

func TestIsWall(t *testing.T) {
	for name, want := range map[string]bool{
		"fig1_wall_s":        true,
		"collectives_wall_s": true,
		"fig1_ratio":         false,
		"_wall_s":            false, // bare suffix is not a metric name
	} {
		if got := isWall(name); got != want {
			t.Errorf("isWall(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestMeasurePatternBandwidth(t *testing.T) {
	a, err := measurePatternBandwidth(1)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 {
		t.Fatalf("bandwidth = %v, want > 0", a)
	}
	// The metric is a figure metric: deterministic given the seed.
	b, err := measurePatternBandwidth(1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("pattern_dense_bw not deterministic: %v vs %v", a, b)
	}
}

// measureService asserts the service's cache contract while it
// measures: the cold request misses, the identical repeat is a
// response-cache hit, the two requests run one prediction, and the hit
// is faster than the miss. Any broken assert is an error here.
func TestMeasureService(t *testing.T) {
	m := map[string]float64{}
	if err := measureService(m, timer(m), 1, 1); err != nil {
		t.Fatal(err)
	}
	if mean := m["service_predict_mean_s"]; !(mean > 0) {
		t.Errorf("service_predict_mean_s = %v, want > 0", mean)
	}
	for _, name := range []string{"service_predict_wall_s", "service_cached_wall_s"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want a positive wall time", name, m[name])
		}
	}
}
