package main

import (
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/metrics"
)

// counts is the work a pass did, per layer, taken from the metrics
// snapshots the public calls return (never from inside the program).
type counts struct {
	Events     uint64 `json:"sim_events"` // scheduled minus cancelled: events that ran
	Windows    uint64 `json:"sim_windows"`
	Transfers  uint64 `json:"netsim_transfers"`
	Retries    uint64 `json:"netsim_retries"`
	Eager      uint64 `json:"mpi_eager"`
	Rendezvous uint64 `json:"mpi_rendezvous"`
	Barriers   uint64 `json:"mpi_barriers"` // per-rank barrier entries
	Adds       uint64 `json:"stats_adds"`
	Quantiles  uint64 `json:"stats_quantiles"`
	Samples    uint64 `json:"mpibench_samples"`
	Draws      uint64 `json:"pevpm_draws"`
	Sweeps     uint64 `json:"pevpm_sweeps"`
	Lints      uint64 `json:"mpilint_calls"`
	Requests   uint64 `json:"service_requests"`
}

// addSnapshot folds one call's instrument snapshot in.
func (c *counts) addSnapshot(s metrics.Snapshot) {
	var scheduled, cancelled uint64
	for _, p := range s.Counters {
		switch p.Pkg + "." + p.Name {
		case "sim.events_scheduled_total":
			scheduled += p.Value
		case "sim.events_cancelled_total":
			cancelled += p.Value
		case "net.transfers_total":
			c.Transfers += p.Value
		case "net.retries_total":
			c.Retries += p.Value
		case "mpi.sends_eager_total":
			c.Eager += p.Value
		case "mpi.sends_rendezvous_total":
			c.Rendezvous += p.Value
		case "mpi.collective_calls_total":
			if len(p.Labels) == 1 && p.Labels[0].Value == "Barrier" {
				c.Barriers += p.Value
			}
		case "pevpm.draws_total":
			c.Draws += p.Value
		case "pevpm.sweeps_total":
			c.Sweeps += p.Value
		}
	}
	c.Events += scheduled - cancelled
}

// add folds another pass's counts in.
func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Windows += o.Windows
	c.Transfers += o.Transfers
	c.Retries += o.Retries
	c.Eager += o.Eager
	c.Rendezvous += o.Rendezvous
	c.Barriers += o.Barriers
	c.Adds += o.Adds
	c.Quantiles += o.Quantiles
	c.Samples += o.Samples
	c.Draws += o.Draws
	c.Sweeps += o.Sweeps
	c.Lints += o.Lints
	c.Requests += o.Requests
}

// messages is the MPI point-to-point send count.
func (c counts) messages() uint64 { return c.Eager + c.Rendezvous }

// drawCount is the Monte-Carlo draws in a PEVPM snapshot.
func drawCount(s metrics.Snapshot) uint64 {
	var c counts
	c.addSnapshot(s)
	return c.Draws
}

// digest accumulates an FNV-64a hash over simulated outputs, so two
// builds that differ only in speed can show every statistic stayed
// bit-identical.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digest) num(v uint64) { d.str(strconv.FormatUint(v, 16)) }

func (d *digest) float(v float64) { d.num(math.Float64bits(v)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
