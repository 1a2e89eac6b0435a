package pevpm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/sim"
	"repro/internal/stats"
)

func patternDBFixture(t *testing.T) (*PatternDB, mpibench.PatternCell, *mpibench.Result) {
	t.Helper()
	topo, nodes, err := cluster.ParseTopology("fattree:64x16x4")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.Perseus().WithTopology(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cluster.NewPlacement(&cfg, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpibench.RunPattern(cfg, mpibench.PatternSpec{
		Pattern: mpibench.PatternDense, P: 16, G: 3, K: 2,
		Direction: mpibench.Unidirectional, Window: 2,
		Placement: pl, Sizes: []int{1024, 16384},
		Rounds: 12, WarmUp: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An operation result beside the pattern result is skipped.
	op, err := mpibench.Run(cfg, mpibench.Spec{
		Op: mpibench.OpIsend, Placement: pl, Sizes: []int{1024},
		Repetitions: 2, WarmUp: 1, SyncProbes: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewPatternDB(&mpibench.Set{Cluster: cfg.Name, Results: []*mpibench.Result{op, res}})
	if err != nil {
		t.Fatal(err)
	}
	return db, *res.Pattern, res
}

func TestPatternDBLookupAndSample(t *testing.T) {
	db, key, res := patternDBFixture(t)
	if keys := db.Keys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v", keys)
	}
	mean, err := db.MeanRound(key, 16384)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := res.PointFor(16384)
	if mean != pt.MaxHist.Mean() {
		t.Errorf("MeanRound = %v, measured %v", mean, pt.MaxHist.Mean())
	}
	// An intermediate size blends between its measured brackets.
	mid, err := db.MeanRound(key, 8192)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := db.MeanRound(key, 1024)
	if mid <= lo || mid >= mean {
		t.Errorf("blended mean %v outside (%v, %v)", mid, lo, mean)
	}
	rng := sim.NewCellRNG(1, "patterndb:test")
	for i := 0; i < 10; i++ {
		v, err := db.SampleRound(rng, key, 16384)
		if err != nil || v <= 0 {
			t.Fatalf("SampleRound = %v, %v", v, err)
		}
	}
	// Unknown keys are clean errors.
	if _, err := db.SampleRound(rng, mpibench.PatternCell{Pattern: "rail"}, 1024); err == nil {
		t.Error("unknown key should fail")
	}
	// A set without pattern results builds no database.
	if _, err := NewPatternDB(&mpibench.Set{}); err == nil {
		t.Error("empty set should fail")
	}
}

func TestPatternDBPredictMakespan(t *testing.T) {
	db, key, res := patternDBFixture(t)
	const rounds = 40
	rng := sim.NewCellRNG(1, "patterndb:predict")
	iv, err := db.PredictMakespan(rng, key, 16384, rounds, 30, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo <= 0 || iv.Hi <= iv.Lo || iv.Point < iv.Lo || iv.Point > iv.Hi {
		t.Fatalf("degenerate interval %+v", iv)
	}
	// The prediction must be consistent with rounds × the measured mean.
	pt, _ := res.PointFor(16384)
	naive := float64(rounds) * pt.MaxHist.Mean()
	if iv.Point < 0.5*naive || iv.Point > 2*naive {
		t.Errorf("predicted %v, naive mean-based %v", iv.Point, naive)
	}
	// Determinism: the same substream reproduces the same interval.
	rng2 := sim.NewCellRNG(1, "patterndb:predict")
	iv2, err := db.PredictMakespan(rng2, key, 16384, rounds, 30, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv != iv2 {
		t.Errorf("prediction not reproducible: %+v vs %+v", iv, iv2)
	}
	if !stats.Overlap(iv, iv2) {
		t.Error("identical intervals must overlap")
	}
	if _, err := db.PredictMakespan(rng, key, 16384, 0, 30, 0.95); err == nil {
		t.Error("rounds=0 should fail")
	}
}
