package scenario

import (
	"context"
	"fmt"

	"sprout/internal/engine"
)

// CompileJobs turns specs into engine jobs that write into the returned
// result slice by index, so assembled output never depends on scheduling
// order. traces may be shared across calls; nil allocates a private cache.
//
// Specs are normalized and their canonical trace pairs bound here, at
// compile time, so the job bodies do only simulation work; each job runs
// on its worker's pooled world (see world.go), reusing the event loop,
// links, packet arena and endpoints of the previous job on that worker.
func CompileJobs(specs []Spec, traces *engine.Cache) ([]engine.Job, []Result, *engine.Cache) {
	if traces == nil {
		traces = engine.NewCache()
	}
	results := make([]Result, len(specs))
	sink := func(i int, res Result) error {
		results[i] = res
		return nil
	}
	jobs := make([]engine.Job, len(specs))
	for i := range specs {
		jobs[i] = indexJob(specs, i, traces, sink)
	}
	return jobs, results, traces
}

// indexJob compiles the job for one global index — the single job
// compiler behind CompileJobs, CompileShardJobs, CompileIndexJobs and Run.
// Position in the full grid, not the shard or rescue pass that runs it,
// determines a job's identity, name and seed derivation. The job hands
// its result to sink(i, result).
func indexJob(specs []Spec, i int, traces *engine.Cache, sink func(int, Result) error) engine.Job {
	c := compile(specs[i], traces)
	return engine.Job{
		Name: specs[i].Label(),
		Run: func(_ context.Context, ws *engine.WorkerState) error {
			res, err := c.run(worldFor(ws))
			if err != nil {
				return err
			}
			return sink(i, res)
		},
	}
}

// compiled is one spec ready to run: normalized and, for a canonical-link
// spec, bound to its trace pair in the shared cache. The key and the
// generator are built here, once, so the job body's lookup allocates
// nothing; generation stays lazy and single-flight, inside the first job
// that asks. A spec that fails to normalize compiles to its error, which
// the job returns when it runs.
type compiled struct {
	norm   Spec
	err    error
	traces *engine.Cache
	key    string
	gen    func() any // nil: injected traces or a streaming process
}

func compile(spec Spec, traces *engine.Cache) *compiled {
	norm, err := spec.Normalize()
	if err != nil {
		return &compiled{err: err}
	}
	c := &compiled{norm: norm}
	if norm.Process == nil && norm.DataTrace == nil {
		c.traces = traces
		c.key, c.gen = pairSource(norm)
	}
	return c
}

// run executes the compiled spec on a pooled world.
func (c *compiled) run(w *world) (Result, error) {
	if c.err != nil {
		return Result{}, c.err
	}
	spec := c.norm
	if c.gen != nil {
		tp := c.traces.Get(c.key, c.gen).(tracePair)
		spec.DataTrace, spec.FeedbackTrace = tp.down, tp.up
		if spec.Direction == "up" {
			spec.DataTrace, spec.FeedbackTrace = tp.up, tp.down
		}
	}
	return runNormalized(spec, w)
}

// RunAll executes the specs through the parallel engine. workers <= 0 uses
// every core; results are identical at any worker count.
func RunAll(ctx context.Context, specs []Spec, workers int) ([]Result, engine.Stats, error) {
	return RunAllOn(ctx, engine.New(workers), specs)
}

// RunAllOn is RunAll on a caller-supplied engine: a persistent engine
// keeps its per-worker simulation worlds across calls (cmd/sproutbench
// -repeat), so repeated sweeps run allocation-flat. Results are identical
// to RunAll's.
func RunAllOn(ctx context.Context, eng *engine.Engine, specs []Spec) ([]Result, engine.Stats, error) {
	results, stats, _, err := RunAllCached(ctx, eng, specs)
	return results, stats, err
}

// RunAllCached is RunAllOn exposing the run's trace cache, so callers can
// report what it retains afterwards (TraceMemory): materialized specs
// populate it, streaming-process specs never touch it.
func RunAllCached(ctx context.Context, eng *engine.Engine, specs []Spec) ([]Result, engine.Stats, *engine.Cache, error) {
	jobs, results, cache := CompileJobs(specs, nil)
	stats, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, stats, cache, fmt.Errorf("scenario: %w", err)
	}
	return results, stats, cache, nil
}
