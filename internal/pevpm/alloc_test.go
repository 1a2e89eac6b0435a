package pevpm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
)

// TestEvaluateAllocsFlatInIterations guards the sweep/match hot path:
// once a Jacobi evaluation's processes, ops, loop stacks, inboxes and
// flight pool have grown to their working size, further iterations allocate
// nothing, so 400 iterations cost the same allocations as 100. The
// iteration count is edited between the two counts, so the 400-iteration
// evaluation must also send four times the messages: a plan specialised
// for 100 iterations must not survive the edit.
func TestEvaluateAllocsFlatInIterations(t *testing.T) {
	db, err := NewEmpiricalDB(fakeSet(t), mpibench.OpIsend, cluster.Perseus())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(figure5)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(iterations float64) (float64, uint64) {
		prog.Params["iterations"] = iterations
		opts := Options{Procs: 16, DB: db, Seed: 1, NodeOf: func(proc int) int { return proc / 2 }}
		var sent uint64
		n := testing.AllocsPerRun(5, func() {
			rep, err := Evaluate(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			sent = rep.MessagesSent
		})
		return n, sent
	}
	short, shortSent := allocs(100)
	long, longSent := allocs(400)
	t.Logf("allocations per Evaluate: %.0f at 100 iterations, %.0f at 400", short, long)
	if long > short+8 {
		t.Errorf("allocations grow with iterations: %.0f at 100, %.0f at 400", short, long)
	}
	if shortSent == 0 || longSent != 4*shortSent {
		t.Errorf("messages sent: %d at 100 iterations, %d at 400; want 4×", shortSent, longSent)
	}
}
