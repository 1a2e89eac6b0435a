package experiments

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestFullIsDenserThanQuick holds Full to at least Quick's density in
// every knob that sets how much is measured, over the same machine and
// seed.
func TestFullIsDenserThanQuick(t *testing.T) {
	full, quick := Full(), Quick()
	for _, k := range []struct {
		name        string
		full, quick int
	}{
		{"Repetitions", full.Repetitions, quick.Repetitions},
		{"WarmUp", full.WarmUp, quick.WarmUp},
		{"SyncProbes", full.SyncProbes, quick.SyncProbes},
		{"EvalRuns", full.EvalRuns, quick.EvalRuns},
		{"Iterations", full.Iterations, quick.Iterations},
		{"measuredReps", full.measuredReps(), quick.measuredReps()},
	} {
		if k.full < k.quick {
			t.Errorf("Full().%s = %d, below Quick's %d", k.name, k.full, k.quick)
		}
	}
	if full.MaxNodes != quick.MaxNodes || full.Seed != quick.Seed {
		t.Errorf("Full() measures %d nodes at seed %d, Quick() %d at seed %d",
			full.MaxNodes, full.Seed, quick.MaxNodes, quick.Seed)
	}
}

// TestMeasuredReps: a count below one still measures one execution.
func TestMeasuredReps(t *testing.T) {
	for _, c := range []struct{ set, want int }{{-3, 1}, {0, 1}, {1, 1}, {5, 5}} {
		if got := (Params{MeasuredReps: c.set}).measuredReps(); got != c.want {
			t.Errorf("MeasuredReps %d resolves to %d, want %d", c.set, got, c.want)
		}
	}
}

// TestSpeedupBounds maps a makespan interval into speedup space, widens
// the bar to a point outside it on either side, and clamps a lower
// makespan bound that crosses zero to the fastest run.
func TestSpeedupBounds(t *testing.T) {
	var tight stats.Summary
	for _, v := range []float64{0.9, 1.0, 1.1} {
		tight.Add(v)
	}
	iv := stats.StudentCI(tight, 0.95)
	lo, hi := speedupBounds(10, 10, tight)
	if lo != 10/iv.Hi || hi != 10/iv.Lo {
		t.Errorf("bounds [%v, %v], want [%v, %v]", lo, hi, 10/iv.Hi, 10/iv.Lo)
	}
	if lo, hi := speedupBounds(10, 2, tight); lo != 2 || hi != 10/iv.Lo {
		t.Errorf("point below the interval: bounds [%v, %v], want [2, %v]", lo, hi, 10/iv.Lo)
	}
	if lo, hi := speedupBounds(10, 50, tight); lo != 10/iv.Hi || hi != 50 {
		t.Errorf("point above the interval: bounds [%v, %v], want [%v, 50]", lo, hi, 10/iv.Hi)
	}

	var wide stats.Summary
	for _, v := range []float64{0.1, 10} {
		wide.Add(v)
	}
	if iv := stats.StudentCI(wide, 0.95); iv.Lo > 0 {
		t.Fatalf("interval %+v does not cross zero", iv)
	}
	if _, hi := speedupBounds(10, 1, wide); hi != 10/wide.Min {
		t.Errorf("crossing interval: upper bound %v, want serial over the fastest run, %v", hi, 10/wide.Min)
	}
}

// TestSeriesByLabel finds a series by its label and reports a miss.
func TestSeriesByLabel(t *testing.T) {
	r := &Figure6Result{Series: []SpeedupSeries{{Label: "measured"}, {Label: "pevpm distributions", Procs: []int{2}}}}
	if s, ok := r.SeriesByLabel("pevpm distributions"); !ok || !reflect.DeepEqual(s.Procs, []int{2}) {
		t.Errorf("SeriesByLabel(pevpm distributions) = %+v, %v", s, ok)
	}
	if s, ok := r.SeriesByLabel("no such series"); ok || s.Label != "" {
		t.Errorf("SeriesByLabel of a missing label = %+v, %v; want the zero series, false", s, ok)
	}
}

// TestPatternStudyDefaults fills every unset knob and keeps set ones.
func TestPatternStudyDefaults(t *testing.T) {
	got := PatternStudyParams{Workers: -2}.defaults()
	want := PatternStudyParams{
		Cells: DefaultPatternStudyCells(), CalRounds: 30, ValRounds: 60, Reps: 40, Level: 0.95, Workers: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults of an unset study:\ngot  %+v\nwant %+v", got, want)
	}
	set := PatternStudyParams{
		Cells: []PatternStudyCell{}, CalRounds: 3, ValRounds: 4, Reps: 5, Level: 0.9, Seed: 7, Workers: 2,
	}
	if got := set.defaults(); !reflect.DeepEqual(got, set) {
		t.Errorf("defaults changed a set study:\ngot  %+v\nwant %+v", got, set)
	}
}
