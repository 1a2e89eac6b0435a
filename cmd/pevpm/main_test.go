package main

import (
	"errors"
	"testing"
)

func TestErrorLine(t *testing.T) {
	for _, c := range []struct{ err, want string }{
		{"result set has no inter-node data for MPI_Bcast",
			"pevpm: result set has no inter-node data for MPI_Bcast"},
		{"pevpm: result set has no inter-node data for MPI_Bcast",
			"pevpm: result set has no inter-node data for MPI_Bcast"},
		{"mpibench: unknown operation", "pevpm: mpibench: unknown operation"},
		{"open db.json: no such file or directory", "pevpm: open db.json: no such file or directory"},
	} {
		if got := errorLine(errors.New(c.err)); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
