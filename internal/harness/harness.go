// Package harness orchestrates the paper's experiments: each table and
// figure entry point is a thin builder that emits internal/scenario Specs
// and evaluates the §5.1 metrics on the results. The scheme constructors,
// path emulation and spec-to-job compilation live in internal/scenario;
// the parallel execution in internal/engine (see suite.go and the
// experiment index in DESIGN.md).
package harness

import (
	"fmt"
	"time"

	"sprout/internal/metrics"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// Config describes one experiment run: a scheme moving bulk data in one
// direction over a trace pair.
type Config struct {
	// Scheme is one of Schemes() or ExtraSchemes().
	Scheme string
	// DataTrace drives the link carrying the scheme's data; FeedbackTrace
	// drives the reverse link (ACKs, receiver reports, forecasts).
	DataTrace, FeedbackTrace *trace.Trace
	// Duration is the virtual run length; Skip is the warmup excluded
	// from metrics (the paper skips the first minute of 17-minute runs;
	// our synthetic traces are stationary, so shorter runs with a
	// proportional skip estimate the same steady state).
	Duration, Skip time.Duration
	// PropDelay is the one-way propagation delay (paper: 20 ms).
	PropDelay time.Duration
	// LossRate applies Bernoulli tail-drop loss on both directions
	// (§5.6). Zero disables.
	LossRate float64
	// Confidence overrides Sprout's forecast confidence (§5.5); zero
	// keeps the default 95%.
	Confidence float64
	// Seed makes the run reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 150 * time.Second
	}
	if c.Skip == 0 {
		c.Skip = 30 * time.Second
	}
	if c.PropDelay == 0 {
		c.PropDelay = 20 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// spec translates the config into a scenario spec.
func (c Config) spec() scenario.Spec {
	return scenario.Spec{
		Scheme:        c.Scheme,
		DataTrace:     c.DataTrace,
		FeedbackTrace: c.FeedbackTrace,
		Duration:      scenario.Duration(c.Duration),
		Skip:          scenario.Duration(c.Skip),
		PropDelay:     scenario.Duration(c.PropDelay),
		Loss:          c.LossRate,
		Confidence:    c.Confidence,
		Seed:          c.Seed,
	}
}

// Result is the outcome of one run.
type Result struct {
	Scheme string
	metrics.Result
}

// Schemes returns the paper's scheme names, in the order its figures list
// them, from the scenario registry.
func Schemes() []string { return scenario.PaperSchemes() }

// ExtraSchemes lists registered schemes beyond the paper's ten: the
// adaptive-σ extension (§3.1's "vary slowly with time") and plain Reno.
func ExtraSchemes() []string { return scenario.ExtraSchemes() }

// Run executes one experiment and returns its metrics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.DataTrace == nil || cfg.FeedbackTrace == nil {
		return Result{}, fmt.Errorf("harness: traces required")
	}
	out, err := scenario.Run(cfg.spec(), nil)
	if err != nil {
		return Result{}, err
	}
	return Result{Scheme: cfg.Scheme, Result: out.Metrics}, nil
}

// GenerateTracePair deterministically generates the data/feedback trace
// pair for one network and direction. direction is "down" (data on the
// downlink) or "up".
func GenerateTracePair(pair trace.NetworkPair, direction string, d time.Duration, seed int64) (data, feedback *trace.Trace) {
	return scenario.GenerateTracePair(pair, direction, d, seed)
}
