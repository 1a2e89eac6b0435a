package pevpm_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/pevpm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// perfDBPinGolden pins every answer of the measured databases bit for
// bit. Rewrite it only on purpose, with
// go test ./internal/pevpm -run TestPerfDBPin -update-golden.
const perfDBPinGolden = "testdata/perfdb_pin.golden"

// Where the pin asks: below, at, between and above the measured sizes
// and contention levels.
var (
	pinSizes       = []int{0, 1, 500, 1024, 3000, 8192, 20000, 65536, 100000}
	pinContentions = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	pinCollProcs   = []int{1, 2, 5, 8, 16}
)

// pinSets are the benchmark sets the pin builds databases from:
// goldenSet; goldenSet without its single-node placement, so intra-node
// lookups fall back to the inter-node grid; and goldenSet plus two
// 4-process placements of MPI_Send and of MPI_Bcast, whose sizes are out
// of order with one repeated (one MPI_Send histogram no family fits),
// and a collective result with no points.
func pinSets() []struct {
	name string
	set  *mpibench.Set
} {
	noIntra := &mpibench.Set{Cluster: "golden"}
	for _, res := range goldenSet().Results {
		if res.Placement != "1x2" {
			noIntra.Add(res)
		}
	}
	wide := goldenSet()
	for i, pl := range []string{"4x1", "2x2"} {
		for _, op := range []mpibench.Op{mpibench.OpSend, mpibench.OpBcast} {
			res := &mpibench.Result{Cluster: "golden", Op: op, Placement: pl, Procs: 4, BinWidth: 1e-6}
			for j, size := range []int{8192, 0, 65536, 1024, 8192} {
				floor := (70e-6 + float64(size)*12e-9) * (1 + 0.1*float64(i+j))
				pt := mpibench.Point{Size: size, Hist: goldenHist(floor)}
				if op == mpibench.OpSend && pl == "2x2" && size == 65536 {
					pt.Hist = spikeHist(floor)
				}
				if op == mpibench.OpBcast && j%2 == 0 {
					pt.MaxHist = goldenHist(1.5 * floor)
				}
				res.Points = append(res.Points, pt)
			}
			wide.Add(res)
		}
	}
	wide.Add(&mpibench.Result{Cluster: "golden", Op: mpibench.OpReduce, Placement: "4x1", Procs: 4})
	return []struct {
		name string
		set  *mpibench.Set
	}{{"golden", goldenSet()}, {"no-intra", noIntra}, {"wide", wide}}
}

// spikeHist puts a fifth of its mass 50 times above the rest, as a
// retransmission timeout does: no unimodal family fits it, so a
// FittedDB keeps the histogram.
func spikeHist(floor float64) *stats.Histogram {
	h := stats.NewHistogram(floor / 200)
	for i := 0; i < 100; i++ {
		v := floor * (1 + 0.01*float64(i%10))
		if i%5 == 0 {
			v *= 50
		}
		h.Add(v)
	}
	return h
}

// pinAnswers writes one line per size: digests of db's seeded Sample and
// SampleIntra draws and of its Mean, Min, MeanIntra and MinIntra over
// every pinned contention level.
func pinAnswers(got *strings.Builder, name string, db pevpm.PerfDB) {
	rng := sim.NewCellRNG(9, "perfdb:pin:"+name)
	for _, size := range pinSizes {
		digests := make([]hash.Hash, 6)
		for i := range digests {
			digests[i] = sha256.New()
		}
		for _, c := range pinContentions {
			for i := 0; i < 4; i++ {
				writeBits(digests[0], db.Sample(rng, size, c))
				writeBits(digests[1], db.SampleIntra(rng, size, c))
			}
			writeBits(digests[2], db.Mean(size, c))
			writeBits(digests[3], db.Min(size, c))
			writeBits(digests[4], db.MeanIntra(size, c))
			writeBits(digests[5], db.MinIntra(size, c))
		}
		fmt.Fprintf(got, "%s size=%d", name, size)
		for i, what := range []string{"sample", "sample_intra", "mean", "min", "mean_intra", "min_intra"} {
			fmt.Fprintf(got, " %s=%x", what, digests[i].Sum(nil)[:8])
		}
		got.WriteByte('\n')
	}
}

func writeBits(h hash.Hash, v float64) { fmt.Fprintf(h, "%016x\n", math.Float64bits(v)) }

// TestPerfDBPin asks every measured database the pin's questions and
// holds the answers to their golden file: the EmpiricalDB of each pin
// set, its contention levels, its FittedDB with the fit report, and its
// CollectiveDB's draws.
func TestPerfDBPin(t *testing.T) {
	var got strings.Builder
	for _, s := range pinSets() {
		db, err := pevpm.NewEmpiricalDB(s.set, mpibench.OpSend, cluster.Perseus())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s contentions=%v\n", s.name, db.Contentions())
		pinAnswers(&got, s.name+"/empirical", db)

		fitted, err := pevpm.NewFittedDBFrom(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range fitted.Report() {
			fmt.Fprintf(&got, "%s/fitted report %s size=%d family=%s ks=%016x\n",
				s.name, p.Placement, p.Size, p.Family, math.Float64bits(p.KS))
		}
		pinAnswers(&got, s.name+"/fitted", fitted)

		coll, err := pevpm.NewCollectiveDB(db, s.set)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewCellRNG(9, "perfdb:pin:"+s.name+"/collective")
		for _, op := range coll.CollectiveOps() {
			for _, procs := range pinCollProcs {
				h := sha256.New()
				for _, size := range pinSizes {
					for i := 0; i < 4; i++ {
						writeBits(h, coll.SampleCollective(rng, op, size, procs))
					}
				}
				fmt.Fprintf(&got, "%s/collective %s procs=%d samples=%x\n", s.name, op, procs, h.Sum(nil)[:8])
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(perfDBPinGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(perfDBPinGolden)
	if err != nil {
		t.Fatalf("%v (write it with -update-golden)", err)
	}
	if got.String() != string(want) {
		t.Errorf("database answers moved from %s (rewrite only on purpose with -update-golden)\n--- want ---\n%s--- got ---\n%s",
			perfDBPinGolden, want, got.String())
	}
}
