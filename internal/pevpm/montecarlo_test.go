package pevpm

import (
	"testing"
)

// TestMonteCarloErrorShrinksWithIterations encodes §6's statistical
// argument: "since the PEVPM execution samples from PDFs of
// communication times, many iterations are needed to give an accurate
// average time per iteration ... the number of iterations can be chosen
// so that the statistical error in the mean is negligibly small."
// The relative spread of the per-iteration makespan must fall roughly
// like 1/sqrt(iterations).
func TestMonteCarloErrorShrinksWithIterations(t *testing.T) {
	db := LogGPStyleDB(200e-6, 5e6, 16384)
	relStd := func(iters int) float64 {
		prog := NewProgram()
		prog.Params["iters"] = float64(iters)
		prog.Body = Block{&Loop{Count: Var("iters"), Body: Block{
			&Runon{
				Conds: []Expr{MustExpr("procnum == 0"), MustExpr("procnum == 1")},
				Bodies: []Block{
					{&Msg{Kind: MsgSend, Size: Num(1024), From: Num(0), To: Num(1)}},
					{&Msg{Kind: MsgRecv, Size: Num(1024), From: Num(0), To: Num(1)}},
				},
			},
			&Serial{Time: Num(100e-6)},
		}}}
		pred, err := Predict(prog, db, PredictSpec{Procs: 2, Runs: 30, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return pred.Std / pred.Mean
	}
	small := relStd(20)
	large := relStd(320) // 16× the iterations → expect ~4× less spread
	t.Logf("relative std: 20 iters %.4f, 320 iters %.4f (ratio %.1f)", small, large, small/large)
	if large >= small {
		t.Fatalf("spread did not shrink: %.4f -> %.4f", small, large)
	}
	if small/large < 2 {
		t.Errorf("spread ratio %.1f; expected roughly sqrt(16)=4", small/large)
	}
}
