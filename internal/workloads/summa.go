package workloads

import (
	"repro/internal/mpi"
	"repro/internal/pevpm"
)

// Summa is a collective-driven workload in the style of blocked parallel
// matrix multiplication: every iteration broadcasts a panel from the
// owner, computes the local update, and ends with a small allreduce (a
// convergence/validation scalar). It exercises the Collective directive
// extension: PEVPM prices whole collectives from MPIBench's measured
// distributions instead of composing them from point-to-point messages.
type Summa struct {
	PanelBytes   int // broadcast payload per iteration
	ReduceBytes  int // allreduce payload per iteration
	Iterations   int
	FlopsSeconds float64 // local compute per iteration per process
}

// DefaultSumma returns a balanced configuration: panel broadcasts of a
// few KB against milliseconds of compute.
func DefaultSumma() Summa {
	return Summa{
		PanelBytes:   8192,
		ReduceBytes:  64,
		Iterations:   100,
		FlopsSeconds: 2e-3,
	}
}

// Run executes the workload on one rank.
func (s Summa) Run(c *mpi.Comm) {
	procs := c.Size()
	for i := 0; i < s.Iterations; i++ {
		c.Bcast(i%procs, s.PanelBytes)
		c.Compute(s.FlopsSeconds)
		c.Allreduce(s.ReduceBytes)
	}
}

// Model builds the PEVPM model using Collective directives. Note how
// much smaller it is than a point-to-point decomposition of the binomial
// trees would be — the benefit of measuring collectives directly.
func (s Summa) Model() *pevpm.Program {
	prog := pevpm.NewProgram()
	prog.Params["iterations"] = float64(s.Iterations)
	prog.Body = pevpm.Block{&pevpm.Loop{
		Count: pevpm.Var("iterations"),
		Body: pevpm.Block{
			&pevpm.Coll{Op: "MPI_Bcast", Size: pevpm.Num(float64(s.PanelBytes))},
			&pevpm.Serial{Time: pevpm.Num(s.FlopsSeconds)},
			&pevpm.Coll{Op: "MPI_Allreduce", Size: pevpm.Num(float64(s.ReduceBytes))},
		},
	}}
	return prog
}

// PVM renders the model in directive syntax (demonstrating the
// Collective directive extension in the text format).
func (s Summa) PVM() string {
	return pevpm.Format(s.Model())
}
