package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSpecLimit bounds how many specs one fuzz input may expand to; a
// longer confidence sweep adds nothing but time per input.
const fuzzSpecLimit = 16

// FuzzSpec drives the scenario-file parser with arbitrary bytes and checks
// the contract every spec consumer builds on: any input Parse accepts also
// goes through Normalize (Parse validated it, so it must not fail now)
// and CompileJobs without a panic, with one job and one result slot per
// spec. The compiled jobs are never run.
func FuzzSpec(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "never-ran.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A canonical-link spec, bare-array form, with a confidence sweep.
	f.Add([]byte(`[{"name": "sprout sweep", "scheme": "sprout", "link": "Verizon LTE",
	  "direction": "up", "duration": "20s", "skip": 5, "confidences": [0.95, 0.5]}]`))
	// Proportional-fair and round-robin cells on streamed processes.
	f.Add([]byte(`{
	  "defaults": {"process": {"model": "Verizon-LTE-down"},
	               "feedback_process": {"model": "Verizon-LTE-up"},
	               "duration": "20s", "skip": "5s", "seed": 1},
	  "scenarios": [
	    {"name": "pf", "cell": {"scheduler": "proportional-fair", "pf_gain": 0.1,
	      "groups": [{"scheme": "sprout", "flows": 32}]}},
	    {"name": "rr", "process": {"model": "ATT-LTE-down", "scale": 0.5,
	        "outages": [{"start": "2s", "end": "3s"}]},
	      "feedback_process": {"handover": [{"model": "ATT-LTE-up", "until": "10s"},
	        {"model": "Verizon-LTE-up"}]},
	      "cell": {"cells": 2, "handover_rate": 0.5,
	        "churn": {"arrival_rate": 1, "mean_lifetime": "2s"},
	        "groups": [{"scheme": "sprout", "flows": 2, "cell": 1}, {"scheme": "cubic", "flows": 1}]}}
	  ]
	}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		specs, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(specs) > fuzzSpecLimit {
			t.Skipf("%d specs, over the %d-spec limit", len(specs), fuzzSpecLimit)
		}
		for i, s := range specs {
			if _, err := s.Normalize(); err != nil {
				t.Fatalf("spec %d (%s) passed Parse but fails Normalize: %v", i, s.Label(), err)
			}
		}
		jobs, results, _ := CompileJobs(specs, nil)
		if len(jobs) != len(specs) || len(results) != len(specs) {
			t.Fatalf("CompileJobs: %d jobs and %d results for %d specs", len(jobs), len(results), len(specs))
		}
	})
}
