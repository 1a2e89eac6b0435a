package mpibench

import "repro/internal/cluster"

// Resolve is RunPattern's front end, for the external fuzz test.
func (s PatternSpec) Resolve(cfg *cluster.Config) (PatternSpec, error) { return s.resolve(cfg) }
