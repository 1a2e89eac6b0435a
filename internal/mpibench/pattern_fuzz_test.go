package mpibench_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpibench"
)

// allocatedBytes reports how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodePairs reads a custom matrix from fuzz bytes, three signed bytes
// (source, destination, count) a pair, at most 256 pairs.
func decodePairs(b []byte) mpibench.Matrix {
	var m mpibench.Matrix
	for i := 0; i+3 <= len(b) && len(m.Pairs) < 256; i += 3 {
		m.Pairs = append(m.Pairs, mpibench.Pair{Src: int(int8(b[i])), Dst: int(int8(b[i+1])), Count: int(int8(b[i+2]))})
	}
	return m
}

// encodePairs is decodePairs' inverse, for seeds.
func encodePairs(ps ...mpibench.Pair) []byte {
	var b []byte
	for _, p := range ps {
		b = append(b, byte(int8(p.Src)), byte(int8(p.Dst)), byte(int8(p.Count)))
	}
	return b
}

// TestOversizedPatternRefusedBeforeBuild: RunPattern refuses a named
// pattern with more p·g ranks than its placement before building its
// matrix. Dense omnidirectional p=4 g=300 k=4 would have 4²·300·299 =
// 1,435,200 pairs (tens of megabytes); an overflowing p·g must not pass
// either.
func TestOversizedPatternRefusedBeforeBuild(t *testing.T) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []mpibench.PatternSpec{
		{Pattern: mpibench.PatternDense, P: 4, G: 300, K: 4, Direction: mpibench.Omnidirectional, Placement: pl, Seed: 1},
		{Pattern: mpibench.PatternFan, P: 1 << 32, G: 1 << 32, K: 1, Direction: mpibench.Omnidirectional, Placement: pl, Seed: 1},
	} {
		var err error
		bytes := allocatedBytes(func() { _, err = mpibench.RunPattern(cfg, spec) })
		if err == nil || !strings.Contains(err.Error(), "needs p*g") {
			t.Errorf("p=%d g=%d on %s: error %v, want the p*g refusal", spec.P, spec.G, pl, err)
		}
		if bytes > 1<<20 {
			t.Errorf("p=%d g=%d on %s: refusing allocated %d bytes", spec.P, spec.G, pl, bytes)
		}
	}
}

// FuzzPatternSpec drives RunPattern's front end (PatternSpec.resolve),
// everything RunPattern does before the simulation, over fuzzed pattern
// names, p/g/k shapes, directions, placement shapes on Perseus and
// custom pair lists. It must never panic; it must refuse a named
// pattern with more p·g ranks than its placement, and refuse a named
// pattern without building its matrix; it must refuse a spec with the
// same error text twice; and an accepted spec's matrix must pass
// Matrix.Check.
func FuzzPatternSpec(f *testing.F) {
	for _, c := range experiments.DefaultPatternStudyCells() {
		f.Add(c.Pattern, c.P, c.G, c.K, string(c.Direction), c.P*c.G/2, 2, []byte(nil))
	}
	for _, pairs := range [][]mpibench.Pair{ // TestPatternValidateRejectsBadMatrix's matrices
		{{Src: 0, Dst: 99, Count: 1}},
		{{Src: -1, Dst: 1, Count: 1}},
		{{Src: 2, Dst: 2, Count: 1}},
		{{Src: 0, Dst: 1, Count: 0}},
		{{Src: 0, Dst: 1, Count: 2}, {Src: 3, Dst: 2, Count: 1}},
	} {
		f.Add(mpibench.PatternCustom, 0, 0, 0, "", 4, 1, encodePairs(pairs...))
	}
	f.Add(mpibench.PatternDense, 4, 300, 4, "omni", 4, 1, []byte(nil)) // 1.4M pairs if built
	f.Add(mpibench.PatternFan, 1<<40, 1<<40, 1, "bi", 116, 2, []byte(nil))
	f.Add("ring", 2, 2, 1, "uni", 4, 1, []byte(nil))
	f.Add(mpibench.PatternRail, 2, 2, 3, "sideways", 4, 1, []byte(nil))

	cfg := cluster.Perseus()
	f.Fuzz(func(t *testing.T, pattern string, p, g, k int, dir string, nodes, perNode int, pairs []byte) {
		spec := mpibench.PatternSpec{
			Pattern: pattern, P: p, G: g, K: k, Direction: mpibench.Direction(dir),
			Placement: cluster.Placement{NodeCount: nodes, PerNode: perNode},
			Matrix:    decodePairs(pairs),
			Seed:      1,
		}
		var got mpibench.PatternSpec
		var err error
		bytes := allocatedBytes(func() { got, err = spec.Resolve(&cfg) })

		_, placeErr := cluster.NewPlacement(&cfg, nodes, perNode)
		named := pattern == mpibench.PatternRail || pattern == mpibench.PatternFan || pattern == mpibench.PatternDense
		shaped := p >= 1 && g >= 2 && k >= 1 && k <= p && spec.Defaults().Direction.Valid()
		if named && shaped && placeErr == nil && p > nodes*perNode/g && err == nil {
			t.Fatalf("p=%d g=%d on %dx%d: accepted, want refused", p, g, nodes, perNode)
		}
		if named && spec.Matrix.Empty() && err != nil && bytes > 1<<20 {
			t.Fatalf("p=%d g=%d k=%d on %dx%d: refusing allocated %d bytes: %v", p, g, k, nodes, perNode, bytes, err)
		}

		_, again := spec.Resolve(&cfg)
		if (err == nil) != (again == nil) || err != nil && err.Error() != again.Error() {
			t.Fatalf("replay: %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		if got.Matrix.Empty() {
			t.Fatal("accepted with an empty matrix")
		}
		if cerr := got.Matrix.Check(got.Placement.NumProcs()); cerr != nil {
			t.Fatalf("accepted a matrix Check refuses: %v", cerr)
		}
	})
}
