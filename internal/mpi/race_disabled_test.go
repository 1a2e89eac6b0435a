//go:build !race

package mpi

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool drops items at random, so allocation counts that
// are exact in a normal build vary by a few between runs.
const raceEnabled = false
