package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpibench"
	"repro/internal/service"
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

// TestRefusesUnusableFlags checks every flag value no prediction can
// use exits 2 naming it, before any file is read.
func TestRefusesUnusableFlags(t *testing.T) {
	files := []string{"-model", "absent.pvm", "-db", "absent.json"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", "absent.json"}, "pevpm: -model and -db are required"},
		{[]string{"-model", "absent.pvm"}, "pevpm: -model and -db are required"},
		{append([]string{"-procs", "0"}, files...), "pevpm: -procs 0: need at least 1"},
		{append([]string{"-pernode", "0"}, files...), "pevpm: -pernode 0: need at least 1"},
		{append([]string{"-runs", "0"}, files...), "pevpm: -runs 0: need at least 1"},
		{append([]string{"-runs", "-1"}, files...), "pevpm: -runs -1: need at least 1"},
		{append([]string{"-mode", "median"}, files...),
			`pevpm: -mode: "median" (want dist, avg-nxp, avg-2x1 or min-2x1)`},
		{[]string{"-hotspots", "3"}, "flag provided but not defined: -hotspots"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2; stderr: %s", c.args, code, stderr.String())
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); first != c.want {
			t.Errorf("%q: stderr starts %q, want %q", c.args, first, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q", c.args, stdout.String())
		}
	}
}

// TestPredictionMatchesService measures the bench spec of one of
// pevpmd's golden requests, runs the CLI over that measurement with the
// request's model, world, runs and seed, and requires the CLI's
// predicted line to be pevpmd's prediction printed the same way.
func TestPredictionMatchesService(t *testing.T) {
	raw, err := os.ReadFile("../pevpmd/testdata/req_200_ring.json")
	if err != nil {
		t.Fatal(err)
	}
	var req service.Request
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Perseus()
	var pls []cluster.Placement
	for _, s := range req.Bench.Placements {
		pl, err := cluster.ParsePlacement(&cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		pls = append(pls, pl)
	}
	b := req.Bench
	set, err := mpibench.RunSweep(cfg, mpibench.Spec{
		Op: mpibench.OpSend, Sizes: b.Sizes, Repetitions: b.Repetitions,
		WarmUp: b.WarmUp, SyncProbes: b.SyncProbes, Seed: b.Seed,
	}.Defaults(), pls)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dbPath, modelPath := filepath.Join(dir, "bench.json"), filepath.Join(dir, "ring.pvm")
	if err := set.SaveFile(dbPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, []byte(req.Model), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", modelPath, "-db", dbPath,
		"-procs", strconv.Itoa(req.Procs), "-runs", strconv.Itoa(req.Runs),
		"-seed", strconv.FormatUint(req.Seed, 10)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var got string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "predicted:") {
			got = line
		}
	}

	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	res := svc.HandleRequest(context.Background(), raw)
	if res.Status != 200 {
		t.Fatalf("service: status %d: %s", res.Status, res.Body)
	}
	var resp service.Response
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if want := predictedLine(resp.Prediction); got != want {
		t.Errorf("CLI printed\n\t%s\npevpmd predicts\n\t%s", got, want)
	}
}
