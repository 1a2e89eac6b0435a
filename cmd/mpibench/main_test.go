package main

import (
	"errors"
	"strings"
	"testing"
)

func TestModeFlagError(t *testing.T) {
	cases := []struct {
		name    string
		given   []string
		pattern bool
		config  string
		want    string // substring of the error; "" means accepted
	}{
		{name: "op defaults", config: "2x1"},
		{name: "op with its own flags", given: []string{"op", "config", "adapt-relwidth", "adapt-max-batches"}, config: "2x1,4x1"},
		{name: "op with -pgk", given: []string{"pgk"}, config: "2x1", want: "-pgk: read only with -pattern"},
		{name: "op with every shape flag", given: []string{"window", "direction", "pgk"}, config: "2x1",
			want: "-pgk, -direction, -window: read only with -pattern"},
		{name: "pattern defaults", given: []string{"pattern"}, pattern: true, config: "2x1"},
		{name: "pattern with its own flags", given: []string{"pattern", "pgk", "direction", "window"}, pattern: true, config: "2x1"},
		{name: "pattern with -op", given: []string{"pattern", "op"}, pattern: true, config: "2x1", want: "-op: not read with -pattern"},
		{name: "pattern with -adapt-level", given: []string{"pattern", "adapt-level"}, pattern: true, config: "2x1",
			want: "-adapt-level: not read with -pattern"},
		{name: "pattern with one -config", given: []string{"pattern", "config"}, pattern: true, config: "64x1"},
		{name: "pattern with a -config list", given: []string{"pattern", "config"}, pattern: true, config: "64x1,128x1",
			want: "-config 64x1,128x1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			given := map[string]bool{}
			for _, f := range c.given {
				given[f] = true
			}
			err := modeFlagError(given, c.pattern, c.config)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Errorf("accepted, want an error naming %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestErrorLine(t *testing.T) {
	for _, c := range []struct{ err, want string }{
		{"pattern dense needs p*g = 128 ranks, placement 64x1 has 64",
			"mpibench: pattern dense needs p*g = 128 ranks, placement 64x1 has 64"},
		{"mpibench: pattern dense needs p*g = 128 ranks, placement 64x1 has 64",
			"mpibench: pattern dense needs p*g = 128 ranks, placement 64x1 has 64"},
		{"cluster: bad topology", "mpibench: cluster: bad topology"},
		{"mpibench:no space", "mpibench: mpibench:no space"},
	} {
		if got := errorLine(errors.New(c.err)); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
