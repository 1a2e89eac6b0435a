package pevpm_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/sim"
)

// patternPinGolden pins every PatternDB draw bit for bit. Rewrite it
// only on purpose, with
// go test ./internal/pevpm -run TestPatternDBPin -update-golden.
const patternPinGolden = "testdata/patterndb_pin.golden"

// patternPinDB measures two pattern cells on a 64-node fat tree, at
// two sizes so draws between them blend, and builds their database.
func patternPinDB(t *testing.T) *pevpm.PatternDB {
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
	set := &mpibench.Set{Cluster: cfg.Name}
	for i, spec := range []mpibench.PatternSpec{
		{Pattern: mpibench.PatternDense, P: 16, G: 3, K: 2, Direction: mpibench.Unidirectional},
		{Pattern: mpibench.PatternRail, P: 16, G: 4, K: 4, Direction: mpibench.Omnidirectional},
	} {
		spec.Window = 2
		spec.Placement = pl
		spec.Sizes = []int{16384, 1024} // out of order: the database sorts them
		spec.Rounds, spec.WarmUp = 10, 2
		spec.Seed = uint64(20 + i)
		res, err := mpibench.RunPattern(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		set.Add(res)
	}
	db, err := pevpm.NewPatternDB(set)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPatternDBPin runs one seeded SampleRound/MeanRound/PredictMakespan
// sequence over every cell and size bracket — below, at, between and
// above the measured sizes — and holds it to its golden file.
func TestPatternDBPin(t *testing.T) {
	db := patternPinDB(t)
	rng := sim.NewCellRNG(9, "patterndb:pin")
	var got strings.Builder
	for _, key := range db.Keys() {
		for _, size := range []int{0, 1024, 4096, 8192, 16384, 65536} {
			h := sha256.New()
			for i := 0; i < 32; i++ {
				v, err := db.SampleRound(rng, key, size)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
			}
			mean, err := db.MeanRound(key, size)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s size=%d samples=%x mean=%016x\n",
				key, size, h.Sum(nil)[:8], math.Float64bits(mean))
		}
		iv, err := db.PredictMakespan(rng, key, 8192, 25, 12, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s predict point=%016x lo=%016x hi=%016x\n", key,
			math.Float64bits(iv.Point), math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
	}
	if *updateGolden {
		if err := os.WriteFile(patternPinGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(patternPinGolden)
	if err != nil {
		t.Fatalf("%v (write it with -update-golden)", err)
	}
	if got.String() != string(want) {
		t.Errorf("pattern database draws moved from %s (rewrite only on purpose with -update-golden)\n--- want ---\n%s--- got ---\n%s",
			patternPinGolden, want, got.String())
	}
}
