package mpibench

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestBuildPatternShapes(t *testing.T) {
	// Rail uni: k pairs per group pair, g-1 group pairs.
	m, err := BuildPattern(PatternRail, 4, 3, 2, Unidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairs) != 2*2 {
		t.Fatalf("rail uni pairs = %d, want 4", len(m.Pairs))
	}
	// Rail keeps participants on their own NIC: pair i -> peer i.
	if m.Pairs[0] != (Pair{Src: 0, Dst: 4, Count: 1}) || m.Pairs[1] != (Pair{Src: 1, Dst: 5, Count: 1}) {
		t.Fatalf("rail edges wrong: %+v", m.Pairs[:2])
	}

	// Fan uni: one sender per group pair, k receivers.
	m, err = BuildPattern(PatternFan, 4, 2, 3, Unidirectional)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Pairs {
		if p.Src != 0 {
			t.Fatalf("fan sender should be the group lead, got %+v", p)
		}
	}
	if len(m.Pairs) != 3 {
		t.Fatalf("fan uni pairs = %d, want 3", len(m.Pairs))
	}

	// Dense omni: k*k pairs per ordered group pair.
	m, err = BuildPattern(PatternDense, 8, 3, 2, Omnidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2 * 2 * 2; len(m.Pairs) != want {
		t.Fatalf("dense omni pairs = %d, want %d", len(m.Pairs), want)
	}

	// Bidirectional doubles the unidirectional edge set.
	uni, _ := BuildPattern(PatternDense, 8, 3, 2, Unidirectional)
	bi, _ := BuildPattern(PatternDense, 8, 3, 2, Bidirectional)
	if len(bi.Pairs) != 2*len(uni.Pairs) {
		t.Fatalf("dense bi pairs = %d, want %d", len(bi.Pairs), 2*len(uni.Pairs))
	}

	// Bad shapes are rejected.
	if _, err := BuildPattern(PatternRail, 4, 1, 2, Unidirectional); err == nil {
		t.Error("g=1 should fail")
	}
	if _, err := BuildPattern(PatternRail, 4, 2, 5, Unidirectional); err == nil {
		t.Error("k>p should fail")
	}
	if _, err := BuildPattern("mesh", 4, 2, 2, Unidirectional); err == nil {
		t.Error("unknown pattern should fail")
	}
	if _, err := BuildPattern(PatternRail, 4, 2, 2, "diag"); err == nil {
		t.Error("unknown direction should fail")
	}
}

// addPattern builds a named pattern edge by edge through Matrix.Add,
// visiting group pairs in BuildPattern's order: the reference that
// shows BuildPattern's direct appends merge nothing Add would.
func addPattern(name string, p, g, k int, dir Direction) Matrix {
	var groups [][2]int
	for a := 0; a < g; a++ {
		for b := 0; b < g; b++ {
			switch {
			case a == b:
			case dir == Omnidirectional:
				groups = append(groups, [2]int{a, b})
			case a == 0:
				groups = append(groups, [2]int{0, b})
				if dir == Bidirectional {
					groups = append(groups, [2]int{b, 0})
				}
			}
		}
	}
	var m Matrix
	for _, ab := range groups {
		a, b := ab[0], ab[1]
		for i := 0; i < k; i++ {
			switch name {
			case PatternRail:
				m.Add(a*p+i, b*p+i, 1)
			case PatternFan:
				m.Add(a*p, b*p+i, 1)
			case PatternDense:
				for j := 0; j < k; j++ {
					m.Add(a*p+i, b*p+j, 1)
				}
			}
		}
	}
	return m
}

func TestBuildPatternMatchesAdd(t *testing.T) {
	shapes := [][3]int{{1, 2, 1}, {4, 3, 2}, {8, 3, 8}, {32, 4, 2}, {16, 5, 4}}
	for _, name := range []string{PatternRail, PatternFan, PatternDense} {
		for _, dir := range []Direction{Unidirectional, Bidirectional, Omnidirectional} {
			for _, sh := range shapes {
				p, g, k := sh[0], sh[1], sh[2]
				got, err := BuildPattern(name, p, g, k, dir)
				if err != nil {
					t.Fatal(err)
				}
				want := addPattern(name, p, g, k, dir)
				if len(want.Pairs) == 0 || !slices.Equal(got.Pairs, want.Pairs) {
					t.Errorf("%s %s p=%d g=%d k=%d: BuildPattern gives %d pairs, Add gives %d, or their order differs",
						name, dir, p, g, k, len(got.Pairs), len(want.Pairs))
				}
			}
		}
	}
}

func TestMatrixAddMergesDuplicates(t *testing.T) {
	var m Matrix
	m.Add(0, 1, 1)
	m.Add(0, 1, 2)
	m.Add(1, 0, 1)
	if len(m.Pairs) != 2 || m.Pairs[0].Count != 3 {
		t.Fatalf("merge failed: %+v", m.Pairs)
	}
	if m.MessagesPerWindow() != 4 {
		t.Fatalf("MessagesPerWindow = %d", m.MessagesPerWindow())
	}
}

// Satellite regression: a matrix naming a rank outside the placement
// (or a self-pair) used to be discoverable only as a peer-range panic
// deep inside internal/mpi once the engine was already running. It must
// be rejected by validation, as mpilint-style findings, before any
// engine spins up.
func TestPatternValidateRejectsBadMatrix(t *testing.T) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		m    Matrix
		want string
	}{
		{"out-of-range receiver", Matrix{Pairs: []Pair{{Src: 0, Dst: 99, Count: 1}}}, "outside"},
		{"out-of-range sender", Matrix{Pairs: []Pair{{Src: -1, Dst: 1, Count: 1}}}, "outside"},
		{"self-pair", Matrix{Pairs: []Pair{{Src: 2, Dst: 2, Count: 1}}}, "self-pair"},
		{"zero count", Matrix{Pairs: []Pair{{Src: 0, Dst: 1, Count: 0}}}, "count"},
	}
	for _, tc := range bad {
		if err := tc.m.Check(pl.NumProcs()); err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.HasSuffix(err.Error(), "(1 of 1 pairs impossible)") {
			t.Errorf("%s: Check = %v, want one impossible pair mentioning %q", tc.name, err, tc.want)
		}
		spec := PatternSpec{Pattern: PatternCustom, Matrix: tc.m, Placement: pl, Seed: 1}
		if _, err := RunPattern(cfg, spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunPattern error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// A pattern bigger than its placement is caught before the matrix.
	spec := PatternSpec{Pattern: PatternDense, P: 4, G: 4, K: 2, Placement: pl, Seed: 1}
	if _, err := RunPattern(cfg, spec); err == nil {
		t.Error("16-rank pattern on a 4-rank placement should fail")
	}
}

// patternTestCluster builds the fat-tree world the determinism tests
// run on: 128 nodes of 32-port leaves, one rank per node, so pattern
// group size p = 32 aligns groups with leaf switches.
func patternTestCluster(t *testing.T, spec string) (cluster.Config, cluster.Placement) {
	t.Helper()
	topo, nodes, err := cluster.ParseTopology(spec)
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
	return cfg, pl
}

// Satellite: the Dense (p=32, g=4, k=2) sweep must be byte-identical at
// 1 vs 8 workers, healthy and under congested-backplane.
func TestPatternSweepDeterminism(t *testing.T) {
	cfg, pl := patternTestCluster(t, "fattree:128x32x4")
	cells := []PatternCell{
		{Pattern: PatternRail, P: 32, G: 4, K: 2},
		{Pattern: PatternFan, P: 32, G: 4, K: 2},
		{Pattern: PatternDense, P: 32, G: 4, K: 2},
	}
	base := PatternSpec{
		Placement: pl,
		Sizes:     []int{4096},
		Rounds:    6,
		WarmUp:    2,
		Window:    2,
		Estimates: true,
		Seed:      7,
	}
	// The sweep simulates about 0.04 s. A Span of 0.05 s puts the
	// preset's backplane degradation inside the run, so the faulted
	// half checks workers against a real fault path.
	sched, err := cluster.Scenario("congested-backplane", 11, cluster.ScenarioEnv{
		Nodes: cfg.Nodes, Segments: cfg.NumSegments(), Span: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	points := map[string][]byte{}
	for _, scenario := range []string{"", "congested-backplane"} {
		s := base
		if scenario != "" {
			s.Faults = sched
		}
		var blobs [][]byte
		for _, workers := range []int{1, 8} {
			s.Workers = workers
			set, err := RunPatternSweep(cfg, s, cells, nil)
			if err != nil {
				t.Fatalf("scenario %q workers %d: %v", scenario, workers, err)
			}
			var buf bytes.Buffer
			if err := set.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, buf.Bytes())
			if workers == 1 {
				var pts []Point
				for _, res := range set.Results {
					pts = append(pts, res.Points...)
				}
				if points[scenario], err = json.Marshal(pts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("scenario %q: sweep output differs between 1 and 8 workers", scenario)
		}
	}
	// The manifests name the fault rules either way, so compare only
	// the measurements: a fault that misses the run leaves them equal.
	if bytes.Equal(points[""], points["congested-backplane"]) {
		t.Error("the faulted sweep measured the same points as the healthy one: its fault never acted on the run")
	}
}

func TestPatternRunMeasures(t *testing.T) {
	cfg, pl := patternTestCluster(t, "dragonfly:4x2x4")
	spec := PatternSpec{
		Pattern:   PatternDense,
		P:         8, // routersPerGroup × nodesPerRouter: groups = dragonfly groups
		G:         4,
		K:         2,
		Direction: Omnidirectional,
		Window:    2,
		Placement: pl,
		Sizes:     []int{1024, 65536},
		Rounds:    8,
		WarmUp:    2,
		Estimates: true,
		Seed:      3,
	}
	res, err := RunPattern(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 4*3*2*2 {
		t.Errorf("pairs = %d, want 48", res.Pairs)
	}
	small, _ := res.PointFor(1024)
	large, _ := res.PointFor(65536)
	if small.Hist.Count() == 0 || large.Hist.Count() == 0 {
		t.Fatal("empty distributions")
	}
	if small.MaxHist.Mean() >= large.MaxHist.Mean() {
		t.Errorf("64KB rounds (%v) should be slower than 1KB rounds (%v)",
			large.MaxHist.Mean(), small.MaxHist.Mean())
	}
	if small.Bandwidth <= 0 || large.Bandwidth <= 0 {
		t.Error("bandwidth not computed")
	}
	// The slowest participant bounds the average one.
	if large.MaxHist.Mean() < large.Hist.Mean() {
		t.Error("round completion cannot beat the per-rank mean")
	}
	if small.Est == nil || small.Est.Mean.Hi <= small.Est.Mean.Lo {
		t.Errorf("estimates missing or degenerate: %+v", small.Est)
	}
	if res.Manifest.Topology != "dragonfly-4x2x4" {
		t.Errorf("manifest topology = %q", res.Manifest.Topology)
	}
}

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]Direction{
		"uni": Unidirectional, "bi": Bidirectional, "omni": Omnidirectional,
	} {
		got, err := ParseDirection(s)
		if err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDirection("diag"); err == nil {
		t.Error("unknown direction should fail")
	}
}

func TestParseShape(t *testing.T) {
	for _, tc := range []struct {
		in      string
		p, g, k int
		err     string
	}{
		{in: "32x4x2", p: 32, g: 4, k: 2},
		{in: " 8 x4x 1 ", p: 8, g: 4, k: 1},
		{in: "32x4", err: `bad pattern shape "32x4" (want pxgxk, e.g. 32x4x2)`},
		{in: "32x4x2x1", err: `bad pattern shape "32x4x2x1" (want pxgxk, e.g. 32x4x2)`},
		{in: "32xfourx2", err: `bad pattern shape "32xfourx2": strconv.Atoi: parsing "four": invalid syntax`},
	} {
		p, g, k, err := ParseShape(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseShape(%q) error = %v, want %s", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || p != tc.p || g != tc.g || k != tc.k {
			t.Errorf("ParseShape(%q) = %d, %d, %d, %v; want %d, %d, %d", tc.in, p, g, k, err, tc.p, tc.g, tc.k)
		}
	}
}

// Pattern results live in a Set: Add replaces a result for the same
// cell (whatever its placement) and keeps operation results apart, and
// SaveFile/LoadFile reproduce the set byte for byte.
func TestPatternCellsRoundTripInSet(t *testing.T) {
	cfg := cluster.Perseus()
	pl, err := cluster.NewPlacement(&cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := PatternSpec{
		Pattern: PatternRail, P: 4, G: 2, K: 2,
		Placement: pl, Sizes: []int{1024},
		Rounds: 3, WarmUp: 1, Seed: 2,
	}
	res, err := RunPattern(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := (PatternCell{Pattern: PatternRail, P: 4, G: 2, K: 2, Window: 4, Direction: Unidirectional}); res.Pattern == nil || *res.Pattern != want {
		t.Fatalf("Pattern = %v, want %v", res.Pattern, want)
	}
	if res.Op != "" || res.Manifest.Op != "" || res.Manifest.Pattern == nil || *res.Manifest.Pattern != *res.Pattern {
		t.Errorf("pattern result carries op %q, manifest op %q and manifest cell %v",
			res.Op, res.Manifest.Op, res.Manifest.Pattern)
	}
	if res.Manifest.Pairs != res.Pairs || res.Manifest.Repetitions != 3 {
		t.Errorf("manifest pairs %d (result %d), repetitions %d (want the 3 rounds)",
			res.Manifest.Pairs, res.Pairs, res.Manifest.Repetitions)
	}
	wider := spec
	wider.Placement, err = cluster.NewPlacement(&cfg, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunPattern(cfg, wider)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Run(cfg, Spec{Op: OpIsend, Placement: pl, Sizes: []int{1024}, Repetitions: 4, WarmUp: 1, SyncProbes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := &Set{Cluster: cfg.Name}
	set.Add(res)
	set.Add(op)
	set.Add(again) // same cell replaces, not appends
	if len(set.Results) != 2 || set.Results[0] != again || set.Results[1] != op {
		t.Fatalf("Add should replace the same cell and keep the op result, got %d results", len(set.Results))
	}
	if got, ok := set.Find(OpIsend, pl.String()); !ok || got != op {
		t.Error("Find misses the operation result beside a pattern result")
	}
	if ps := set.Placements(OpIsend); len(ps) != 1 {
		t.Errorf("Placements(MPI_Isend) = %v, want the op result's only", ps)
	}
	if _, ok := res.PointFor(4096); ok {
		t.Error("PointFor on an unmeasured size should miss")
	}

	path := t.TempDir() + "/patterns.json"
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := set.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("set does not survive a save/load round trip")
	}
	if *loaded.Results[0].Pattern != *again.Pattern || loaded.Results[0].Points[0].Bandwidth != again.Points[0].Bandwidth {
		t.Error("loaded pattern result lost its cell or bandwidth")
	}
}

// Satellite regression: the manifest's cluster hash must cover the
// topology spec — the same pattern on a different fabric (or rail
// count) is a different experiment.
func TestPatternClusterHashCoversTopology(t *testing.T) {
	flat := cluster.Perseus()
	hashes := map[string]string{"flat": ClusterHash(&flat)}
	for _, spec := range []string{"fattree:128x32x4", "fattree:128x32x4+2rail", "dragonfly:4x2x4"} {
		topo, nodes, err := cluster.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := cluster.Perseus().WithTopology(topo, nodes)
		if err != nil {
			t.Fatal(err)
		}
		hashes[spec] = ClusterHash(&cfg)
	}
	seen := map[string]string{}
	for name, h := range hashes {
		if prev, dup := seen[h]; dup {
			t.Errorf("cluster hash of %q and %q collide: %s", name, prev, h)
		}
		seen[h] = name
	}
}
