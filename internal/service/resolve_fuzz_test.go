package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResolve holds the request front end to its contract on any body:
// decoding and resolving (parseRequest, as HandleRequest runs them)
// never panic, a rejected body fails with the same error text when
// parsed again, and an accepted request's canonical bytes parse back to
// the same canonical bytes, so the response cache keys a request by
// what it asks for, not by how it was spelled. The corpus starts from
// the requests the service gate replays and those the service tests
// send.
func FuzzResolve(f *testing.F) {
	files, err := filepath.Glob("../../cmd/pevpmd/testdata/req_*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("found no seed requests")
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	add := func(req Request) {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	add(testRequest())
	for _, edit := range []func(*Request){
		func(r *Request) { r.Model = oobModel },
		func(r *Request) { r.Model = "PEVPM Serial time = 1e308*10\n" },
		func(r *Request) { r.Model = "PEVPM Message type = MPI_Isend\nPEVPM & size = \n" },
		func(r *Request) { r.Cluster.Topology = "tree:1x4294967296x4294967296" },
		func(r *Request) { r.Mode = "min-2x1"; r.Trace = true },
		func(r *Request) { r.Procs = 0 },
		func(r *Request) { r.Quantile = 1 },
	} {
		req := testRequest()
		edit(&req)
		add(req)
	}
	f.Add([]byte(`{"model": "x", "procs": 4, "seed": 1, "turbo": true}`))
	f.Add([]byte(`{"runs": 5, "mode": "dist", "per_node": 1, "quantile": 0.5,
		"cluster": {"name": "perseus"}, "procs": 4, "seed": 7, "model": "PEVPM Serial time = 1\n",
		"bench": {"op": "MPI_Send", "sizes": [0, 1024], "placements": ["2x1", "4x1"],
			"repetitions": 6, "warmup": 2, "sync_probes": 4, "seed": 1}}`))

	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := s.parseRequest(raw)
		if err != nil {
			_, again := s.parseRequest(raw)
			if again == nil || again.Error() != err.Error() {
				t.Fatalf("parsed twice, the body failed with %q, then %v", err, again)
			}
			return
		}
		canon := canonical(&req)
		back, err := s.parseRequest(canon)
		if err != nil {
			t.Fatalf("canonical bytes %s of an accepted request fail to parse: %v", canon, err)
		}
		if again := canonical(&back); !bytes.Equal(again, canon) {
			t.Fatalf("canonical bytes do not round-trip:\n%s\n%s", canon, again)
		}
	})
}
