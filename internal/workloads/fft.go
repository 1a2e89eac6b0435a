package workloads

import (
	"repro/internal/mpi"
	"repro/internal/pevpm"
)

// FFT is the regular-global workload: a transform whose butterfly-style
// exchange pattern touches progressively distant partners — in stage k
// every rank sends its whole local block to the rank 2^k away on a ring
// and receives the block from 2^k behind, then recombines locally. With
// blocks of tens of kilobytes it exercises the rendezvous protocol and
// global bandwidth, the opposite regime from Jacobi's local 1 KB edges.
type FFT struct {
	PointsPerProc int     // complex points held per process
	BytesPerPoint int     // wire bytes per point (8 = single-precision complex)
	StageSeconds  float64 // local recombination time per stage per point
	Rounds        int     // whole transforms to run back to back
}

// DefaultFFT returns a configuration with 8 KB blocks — large enough
// that bandwidth matters, small enough that synchronized benchmark
// bursts of them do not saturate the backplane (predicting applications
// from saturated distributions overstates their communication time,
// because a self-paced application staggers its transfers; see
// EXPERIMENTS.md).
func DefaultFFT() FFT {
	return FFT{
		PointsPerProc: 1024,
		BytesPerPoint: 8,
		StageSeconds:  120e-9,
		Rounds:        20,
	}
}

// BlockBytes is the per-stage message size.
func (f FFT) BlockBytes() int { return f.PointsPerProc * f.BytesPerPoint }

// stages returns the exchange distances for a job of the given size:
// 1, 2, 4, ... < procs.
func stages(procs int) []int {
	var out []int
	for d := 1; d < procs; d <<= 1 {
		out = append(out, d)
	}
	return out
}

const tagFFT = 2

// Run executes the FFT program on one rank.
func (f FFT) Run(c *mpi.Comm) {
	rank, procs := c.Rank(), c.Size()
	for round := 0; round < f.Rounds; round++ {
		for _, d := range stages(procs) {
			dst := (rank + d) % procs
			src := (rank - d + procs) % procs
			c.Sendrecv(dst, tagFFT, f.BlockBytes(), src, tagFFT)
			c.Compute(float64(f.PointsPerProc) * f.StageSeconds)
		}
	}
}

// Model builds the PEVPM model for a job of the given size. The stage
// distances depend on the machine size, so the model is generated per
// configuration — the paper likewise re-evaluates its models "with
// different machine size parameters".
func (f FFT) Model(procs int) *pevpm.Program {
	prog := pevpm.NewProgram()
	var body pevpm.Block
	for _, d := range stages(procs) {
		dist := pevpm.Num(float64(d))
		// Every rank sends to (procnum+d)%numprocs and receives from
		// (procnum-d+numprocs)%numprocs. Sends are eager-or-rendezvous
		// exactly as the executable's Sendrecv posts them.
		body = append(body,
			&pevpm.Msg{
				Kind: pevpm.MsgSend,
				Size: pevpm.Num(float64(f.BlockBytes())),
				From: pevpm.Var("procnum"),
				To:   addMod(dist),
			},
			&pevpm.Msg{
				Kind: pevpm.MsgRecv,
				Size: pevpm.Num(float64(f.BlockBytes())),
				From: subMod(dist),
				To:   pevpm.Var("procnum"),
			},
			&pevpm.Serial{Time: pevpm.Num(float64(f.PointsPerProc) * f.StageSeconds)},
		)
	}
	prog.Body = pevpm.Block{&pevpm.Loop{
		Count: pevpm.Num(float64(f.Rounds)),
		Body:  body,
	}}
	return prog
}

// addMod builds (procnum + d) % numprocs.
func addMod(d pevpm.Expr) pevpm.Expr {
	return pevpm.MustExpr("(procnum + " + d.String() + ") % numprocs")
}

// subMod builds (procnum - d + numprocs) % numprocs.
func subMod(d pevpm.Expr) pevpm.Expr {
	return pevpm.MustExpr("(procnum - " + d.String() + " + numprocs) % numprocs")
}
