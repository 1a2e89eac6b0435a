package pevpm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// sendRuns builds pending flights the way a sweep appends them: each of
// procs processes sends its share of n flights in ascending depart order,
// processes follow in id order, and seq counts sends in that order. A
// process's first send departs before the previous process's second, so
// when each sends at least two the slice holds exactly procs ascending
// runs.
func sendRuns(rng *sim.RNG, n, procs int) []*flight {
	fs := make([]*flight, 0, n)
	for p := 0; p < procs; p++ {
		k := n / procs
		if p < n%procs {
			k++
		}
		depart := float64(p) * 1e-7
		for i := 0; i < k; i++ {
			fs = append(fs, &flight{seq: uint64(len(fs) + 1), depart: depart})
			depart += 1e-6 + rng.Float64()*1e-4
		}
	}
	return fs
}

// ascendingRuns counts the maximal runs of fs already in byDepartSeq
// order.
func ascendingRuns(fs []*flight) int {
	if len(fs) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(fs); i++ {
		if byDepartSeq(fs[i-1], fs[i]) > 0 {
			runs++
		}
	}
	return runs
}

// TestOrderPendingMatchesSortFunc pins the match phase's draw order:
// orderPending must leave every input in exactly the order
// slices.SortFunc(byDepartSeq) gives it. Seqs are unique, as the machine
// makes them, so that order is unique and every draw keeps its bits.
func TestOrderPendingMatchesSortFunc(t *testing.T) {
	type orderCase struct {
		name string
		fs   []*flight
		runs int // ascending runs in the input; 0 leaves it unchecked
	}
	rng := sim.NewRNG(22)
	cases := []orderCase{
		{"empty", nil, 0},
		{"one", sendRuns(rng, 1, 1), 1},
		{"jacobi/3 runs of 40", sendRuns(rng, 40, 3), 3},
		{"fft/31 runs of 64", sendRuns(rng, 64, 31), 31},
		{"taskfarm/1 run of 2", sendRuns(rng, 2, 1), 1},
		{"1 run of 64", sendRuns(rng, 64, 1), 1},
	}

	// Exact ties across processes: eight processes send at the same four
	// instants, so every depart is shared by eight flights and only seq
	// orders them. Signed zeros compare equal and tie too.
	var ties []*flight
	for p := 0; p < 8; p++ {
		for i, d := range []float64{math.Copysign(0, -1), 0, 1e-3, 2e-3} {
			if i == 1 && p%2 == 1 {
				d = math.Copysign(0, -1)
			}
			ties = append(ties, &flight{seq: uint64(len(ties) + 1), depart: d})
		}
	}
	cases = append(cases, orderCase{"ties across processes", ties, 8})

	// NaN departs sort before every number; among themselves seq orders
	// them.
	nan := sendRuns(rng, 64, 5)
	for i := 3; i < len(nan); i += 7 {
		nan[i].depart = math.NaN()
	}
	cases = append(cases, orderCase{"NaN departs", nan, 0})

	// Shuffled ties, with and without NaNs: seqs no longer rise with
	// position, so only seq orders a tie. Forty flights need at most 780
	// moves, inside the budget, so the insertion pass orders them alone.
	shuffled := func(nanEvery int) []*flight {
		fs := make([]*flight, 40)
		for i, j := range rng.Perm(len(fs)) {
			d := float64(rng.Intn(4)) * 1e-3
			if nanEvery > 0 && rng.Intn(nanEvery) == 0 {
				d = math.NaN()
			}
			fs[i] = &flight{seq: uint64(j + 1), depart: d}
		}
		return fs
	}
	cases = append(cases,
		orderCase{"shuffled ties", shuffled(0), 0},
		orderCase{"shuffled ties and NaNs", shuffled(10), 0})

	// A reversed slice needs n(n-1)/2 = 8,386,560 moves, far past the
	// move budget, so the pass hands it to slices.SortFunc part-sorted.
	rev := sendRuns(rng, 4096, 1)
	slices.Reverse(rev)
	cases = append(cases, orderCase{"reversed 4096", rev, 4096})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.runs > 0 {
				if got := ascendingRuns(c.fs); got != c.runs {
					t.Fatalf("input has %d ascending runs, want %d", got, c.runs)
				}
			}
			want := slices.Clone(c.fs)
			slices.SortFunc(want, byDepartSeq)
			got := slices.Clone(c.fs)
			orderPending(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: seq %d (depart %v), want seq %d (depart %v)",
						i, got[i].seq, got[i].depart, want[i].seq, want[i].depart)
				}
			}
		})
	}
}
