package workloads

import (
	"testing"

	"repro/internal/mpilint"
)

// TestTaskFarmModelLintsClean: mpilint finds no error in the task farm's
// model at any process count (its zero-byte stop messages stay
// warnings). Each worker's task loop is unrolled only twice by
// the deadlock search while the master's receives are written out one by
// one, so a search that blamed the master's later receives on the
// workers reported a deadlock that pevpm.Evaluate and the executed farm
// never hit.
func TestTaskFarmModelLintsClean(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 16, 32, 64} {
		findings, err := mpilint.Analyze(DefaultTaskFarm().Model(n), mpilint.Options{Procs: n})
		if err != nil {
			t.Fatalf("%d procs: %v", n, err)
		}
		for _, f := range findings {
			if f.Severity == mpilint.SeverityError {
				t.Errorf("%d procs: %s", n, f)
			}
		}
	}
}
