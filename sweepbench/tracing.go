package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// span is one interval the traced run recorded around a call into a
// layer. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the traced run's spans in memory and its CPU profile; both
// are written to the output directory when the run ends.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	profPath string
	prof     *os.File
	outDir   string
	base     string
}

func startTracer(outDir, workload string) (*tracer, error) {
	t := &tracer{t0: time.Now(), outDir: outDir, base: workload}
	t.profPath = filepath.Join(outDir, workload+".cpu.pprof")
	f, err := os.Create(t.profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.prof = f
	return t, nil
}

// span opens a span and returns the function that closes it. On a nil
// tracer (untraced runs) it records nothing.
func (t *tracer) span(name, parent string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() { t.add(name, parent, start, time.Since(t.t0)) }
}

func (t *tracer) add(name, parent string, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

// total returns the summed length of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// stopProfile ends the CPU profile; only the cold sweep is profiled.
func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	return t.prof.Close()
}

// finish completes a traced run after its cold sweep: it attributes the
// profile to layers, derives the engine and scenario layer figures from
// the spans, re-runs the sweep warm on the same engine, and runs the
// layer probes. It returns the per-layer metrics and any failed check.
func (t *tracer) finish(opt childOptions, jobs *jobSpans, raw, norm []scenario.Spec, results []scenario.Result,
	cache *engine.Cache, eng *engine.Engine, cold sweepReport) (map[string]float64, []string, error) {
	if err := t.stopProfile(); err != nil {
		return nil, nil, err
	}
	m := map[string]float64{}
	var failures []string

	samples, err := readProfile(t.profPath)
	if err != nil {
		return nil, nil, err
	}
	perLayer, cpu := attribute(samples)
	for _, l := range profileLayers {
		m[l+".self_s"] = perLayer[l]
		delete(perLayer, l)
	}
	for _, sec := range perLayer { // layers outside the reported set
		m["other.self_s"] += sec
	}
	m["profile.cpu_s"] = cpu

	// Engine spans: one per job, under the engine.run span.
	for i := range jobs.start {
		if !jobs.start[i].IsZero() {
			t.add("engine.job", "engine.run", jobs.start[i].Sub(t.t0), jobs.end[i].Sub(t.t0))
		}
	}
	durs := jobs.durations()
	busy := 0.0
	for _, d := range durs {
		busy += d
	}
	workers := eng.Workers()
	if workers > len(durs) {
		workers = len(durs)
	}
	m["engine.busy_s"] = busy
	m["engine.idle_s"] = float64(workers)*cold.makespan().Seconds() - busy
	m["engine.job_p50_ms"] = median(durs) * 1e3
	m["scenario.load_ms"] = float64(t.total("scenario.load")) / 1e6
	m["scenario.compile_ms"] = float64(t.total("scenario.compile")) / 1e6
	_, _, traceBytes := scenario.TraceMemory(cache)
	m["scenario.trace_mem_mb"] = float64(traceBytes) / (1 << 20)

	// Warm re-run: the same grid on the same engine (worker worlds and
	// trace cache already built). Its results must match the cold run's.
	warmJobs, warmResults, _ := scenario.CompileJobs(raw, cache)
	warmSpans := &jobSpans{}
	warmSpans.wrap(warmJobs)
	end := t.span("engine.run.warm", "")
	_, err = eng.Run(context.Background(), warmJobs)
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("warm run: %w", err)
	}
	first, last := warmSpans.bounds()
	m["scenario.warm_ns_per_flow_s"] = float64(last.Sub(first).Nanoseconds()) / cold.FlowSeconds
	warmDigest, err := digest(warmResults)
	if err != nil {
		return nil, nil, err
	}
	if warmDigest != cold.Digest {
		failures = append(failures, "warm re-run on the same engine changed the results")
	}

	if err := runProbes(opt.workload, raw, norm, results, t, m); err != nil {
		return nil, nil, err
	}
	return m, failures, t.writeSpans()
}

func (t *tracer) writeSpans() error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.outDir, t.base+".spans.json"), b, 0o644)
}
