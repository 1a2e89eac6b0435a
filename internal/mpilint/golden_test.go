package mpilint_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mpilint"
	"repro/internal/pevpm"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden JSON fixtures")

// goldenPath pins every finding Analyze reports on the shipped models and
// fixtures. Rewrite it only with
// go test ./internal/mpilint -run TestAnalyzeGolden -update-golden.
const goldenPath = "testdata/analyze_golden.json"

// goldenModels returns every .pvm model of the repository (the fixtures
// and the examples), each parsed under its base name, and the four
// workloads' models at each process count, keyed by the case name their
// findings are pinned under.
func goldenModels(t *testing.T) map[string]func(procs int) *pevpm.Program {
	t.Helper()
	models := make(map[string]func(procs int) *pevpm.Program)
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.pvm"))
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.pvm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(fixtures, examples...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := pevpm.ParseFile(filepath.Base(path), string(src))
		if err != nil {
			t.Fatal(err)
		}
		models[filepath.Base(path)] = func(int) *pevpm.Program { return prog }
	}
	jacobi, err := workloads.DefaultJacobi().Model()
	if err != nil {
		t.Fatal(err)
	}
	summa := workloads.DefaultSumma().Model()
	models["workload jacobi"] = func(int) *pevpm.Program { return jacobi }
	models["workload summa"] = func(int) *pevpm.Program { return summa }
	models["workload fft"] = workloads.DefaultFFT().Model
	models["workload taskfarm"] = workloads.DefaultTaskFarm().Model
	return models
}

// TestAnalyzeGolden pins Analyze's findings, as the JSON cmd/mpilint
// prints, on every .pvm file at 2, 4 and 8 processes and on the Jacobi,
// Summa, FFT and task farm models at 4, 8 and 64.
func TestAnalyzeGolden(t *testing.T) {
	got := make(map[string][]mpilint.Finding)
	for name, model := range goldenModels(t) {
		procs := []int{2, 4, 8}
		if filepath.Ext(name) != ".pvm" {
			procs = []int{4, 8, 64}
		}
		for _, n := range procs {
			fs, err := mpilint.Analyze(model(n), mpilint.Options{Procs: n})
			if err != nil {
				t.Fatalf("%s at %d processes: %v", name, n, err)
			}
			if fs == nil {
				fs = []mpilint.Finding{}
			}
			got[fmt.Sprintf("%s/procs=%d", name, n)] = fs
		}
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.FromSlash(goldenPath)
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite with -update-golden)", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var wantCases map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	for name, fs := range got {
		b, err := json.Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, wantCases[name]); err != nil || !bytes.Equal(b, w.Bytes()) {
			t.Errorf("case %s differs from %s:\ngot  %s\nwant %s", name, goldenPath, b, w.Bytes())
		}
	}
	if len(wantCases) != len(got) {
		t.Errorf("golden has %d cases, test produced %d", len(wantCases), len(got))
	}
}
